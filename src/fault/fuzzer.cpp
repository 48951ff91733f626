#include "fault/fuzzer.hpp"

#include <cassert>
#include <exception>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "async/rpc.hpp"
#include "fft/ft_model.hpp"
#include "gas/collectives.hpp"
#include "gas/runtime.hpp"
#include "kv/store.hpp"
#include "sched/work_stealing.hpp"
#include "sim/engine.hpp"
#include "stream/random_access.hpp"
#include "trace/trace.hpp"
#include "util/names.hpp"
#include "util/rng.hpp"
#include "uts/tree.hpp"

namespace hupc::fault {

namespace {

// Every fuzz workload runs on the same small footprint: 8 ranks over 2
// Lehman nodes (4 ranks/node) — enough to exercise intra- and inter-node
// paths while keeping a single case in the low milliseconds.
constexpr int kFuzzThreads = 8;
constexpr int kFuzzNodes = 2;
constexpr std::size_t kAsyncWords = 16;  // per-slot payload of run_async

// Host-side state with one `init` element per fuzz rank.
template <class T>
std::vector<T> per_rank(const T& init = T{}) {
  return std::vector<T>(static_cast<std::size_t>(kFuzzThreads), init);
}

// FNV-1a, the checksum the teams and vis oracles fold delivered values into.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

gas::Config base_config(const CaseSpec& spec, trace::Tracer* tracer) {
  gas::Config cfg =
      gas::preset_config("lehman", kFuzzNodes, kFuzzThreads,
                         gas::parse_backend(spec.backend), spec.conduit);
  cfg.tracer = tracer;
  return cfg;
}

// The frame every fuzz case runs in: a tracer, an engine, the 8-rank runtime
// of base_config and the case's FaultPlan. The plan is installed before a
// workload body builds anything on `rt`: the steal seam is read when
// WorkStealing is constructed, the cache seam when an epoch opens. The body
// sets its workload up, then hands `run` its run step and its own checks.
struct Case {
  Case(const CaseSpec& case_spec, const PlanParams& params)
      : spec(case_spec), rt(engine, base_config(spec, &tracer)), plan(params) {
    plan.install(rt);
  }

  // Runs `step`. If it throws, records the exception and skips every check;
  // otherwise runs the workload's `checks`, then the invariants every
  // workload shares. Either way the result is then finished.
  template <class Step, class Checks>
  void run(Step step, Checks checks) {
    try {
      step();
    } catch (const std::exception& e) {
      fail(e);
      return;
    }
    checks(res.violations);
    check_byte_conservation(rt, res.violations);
    check_network_counters(rt, res.violations);
    check_virtual_time(engine, res.violations);
    finish();
  }

  // A case that threw — while its body set up or while it ran — records
  // "<workload>: exception: <what>" and is finished without checks.
  void fail(const std::exception& e) {
    res.violations.push_back(spec.workload + ": exception: " + e.what());
    finish();
  }

  // Records the virtual time, the injection count and the trace summary.
  void finish() {
    res.virtual_time = engine.now();
    res.injected = plan.injected();
    std::ostringstream summary;
    tracer.export_summary(summary);
    res.summary = summary.str();
  }

  // The common run step: the SPMD program the body started, to completion.
  template <class Checks>
  void run(Checks checks) {
    run([this] { rt.run_to_completion(); }, std::move(checks));
  }

  const CaseSpec& spec;
  trace::Tracer tracer{std::size_t{1} << 18};
  sim::Engine engine;
  gas::Runtime rt;
  FaultPlan plan;
  CaseResult res;
};

// UTS workload: a parallel count of a tiny binomial tree by hierarchical work
// stealing must match the sequential enumeration (steal conservation).
void run_uts(Case& c) {
  // Tree shape and steal policy derive from the case seed, NOT the plan, so
  // the shrinker replays the identical workload under reduced plans.
  util::SplitMix64 sm(c.spec.seed ^ 0x07155EEDULL);
  uts::TreeParams tree;
  tree.b0 = 40 + static_cast<int>(sm.next() % 41);  // ~200-400 node trees
  tree.m = 8;
  tree.q = 0.1;
  tree.root_seed = static_cast<std::uint32_t>(sm.next() % 1024);
  const uts::TreeStats oracle = uts::enumerate(tree);

  sched::StealParams sp;
  sp.policy = sm.next() % 2 == 0 ? sched::VictimPolicy::random
                                 : sched::VictimPolicy::local_first;
  sp.rapid_diffusion = true;
  sp.granularity = 4;
  sp.chunk = 4;
  sp.batch = 16;
  sp.seed = c.spec.seed;
  sp.test_split_off_by_one = c.spec.plant_split_bug;
  sched::WorkStealing<uts::Node> ws(
      c.rt, sp, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});

  c.rt.spmd([&ws](gas::Thread& t) { return ws.run(t); });
  c.run([&](Violations& out) {
    check_steal_conservation(ws, c.rt.threads(), oracle.nodes, out);
  });
}

// FT workload: NAS FT class S, trimmed to 2 iterations.
void run_ft(Case& c) {
  util::SplitMix64 sm(c.spec.seed ^ 0x0F75EEDFULL);
  fft::FtConfig fc;
  fc.grid = fft::FtParams{64, 64, 64, 2, "S"};  // class S, trimmed to 2 iters
  fc.variant = sm.next() % 2 == 0 ? fft::CommVariant::split_phase
                                  : fft::CommVariant::overlap;
  fc.subs = sm.next() % 2 == 0 ? 0 : 2;  // pure UPC vs. hybrid sub-threads
  fft::FtModel model(c.rt, fc);

  c.rt.spmd([&model](gas::Thread& t) { return model.run(t); });
  // Phase-timing coherence: every phase non-negative and the disjoint phase
  // measurements can never exceed the rank's wall (virtual) total.
  c.run([&](Violations& out) {
    for (int r = 0; r < c.rt.threads(); ++r) {
      const fft::FtTimings& tm = model.timings(r);
      const double phases[] = {tm.evolve, tm.fft2d, tm.transpose, tm.comm,
                               tm.fft1d};
      double sum = 0.0;
      for (double p : phases) {
        sum += p;
        if (p < 0.0) {
          out.push_back("ft timings: rank " + std::to_string(r) +
                        " has a negative phase time");
          break;
        }
      }
      if (sum > tm.total * (1.0 + 1e-9) + 1e-12) {
        out.push_back("ft timings: rank " + std::to_string(r) + " phase sum " +
                      std::to_string(sum) + " exceeds total " +
                      std::to_string(tm.total));
      }
    }
  });
}

// Barrier storm: every rank must pass each phase exactly once.
void run_barrier(Case& c) {
  util::SplitMix64 sm(c.spec.seed ^ 0xBA221E25ULL);
  const int phases = 10 + static_cast<int>(sm.next() % 7);

  c.rt.spmd([phases](gas::Thread& t) -> sim::Task<void> {
    for (int i = 0; i < phases; ++i) {
      // Skew the arrivals so a linearizability bug (a rank slipping past a
      // phase) would actually have room to manifest.
      const double skew = 1e-7 * static_cast<double>((t.rank() * 13 + i * 7) %
                                                     23);
      co_await t.compute(skew);
      co_await t.barrier();
    }
  });
  c.run([&](Violations& out) {
    check_barrier(c.rt, static_cast<std::uint64_t>(phases), out);
  });
}

// Cache-pressure workload: the read-dominated gather runs with a read-cache
// epoch open on every rank, under whatever plan the case derived (including
// cache-storm invalidation storms). The oracle is the SAME gather stream
// uncached and unfaulted in a fresh runtime: the checksums must match
// bit-for-bit because the cache holds tags, never data.
void run_gather(Case& c) {
  util::SplitMix64 sm(c.spec.seed ^ 0x6A74E255ULL);
  stream::GatherParams gp;
  gp.bursts = 4 + (sm.next() % 5);
  gp.burst_len = 16 + (sm.next() % 17);
  gp.cached = true;
  gp.cache.lines = sm.next() % 2 == 0 ? 32 : 256;
  gp.cache.line_bytes = sm.next() % 2 == 0 ? 64 : 256;
  gp.seed = sm.next() | 1;

  stream::RandomAccess ra(c.rt, 12);
  stream::GatherResult cached;
  c.run([&] { cached = ra.run_gather(gp); }, [&](Violations& out) {
    sim::Engine oracle_engine;
    gas::Runtime oracle_rt(oracle_engine, base_config(c.spec, nullptr));
    stream::RandomAccess oracle(oracle_rt, 12);
    stream::GatherParams up = gp;
    up.cached = false;
    const stream::GatherResult uncached = oracle.run_gather(up);

    comm::CacheStats total;
    for (int r = 0; r < c.rt.threads(); ++r) {
      if (const comm::CacheStats* s = c.rt.thread(r).read_cache_stats()) {
        total.hits += s->hits;
        total.misses += s->misses;
        total.evictions += s->evictions;
        total.invalidations += s->invalidations;
      }
    }
    check_cache_transparency(cached.checksum, uncached.checksum, &total, out);
  });
}

// Async-completion workload: every rank overlaps launched copies into its ring
// neighbour's slot with RPC traffic, recording (issue, resolve) times and a
// firing count for every copy. check_async_ordering then asserts each
// future resolved exactly once and never before its issue — the property a
// completion-storm plan (which HOLDS completions) must preserve — and a
// chained RPC probe asserts read-your-writes: once a launched copy's future
// resolves, the destination rank observes the payload.
void run_async(Case& c) {
  gas::Runtime& rt = c.rt;
  sim::Engine& engine = c.engine;
  async::RpcDomain domain(rt);

  util::SplitMix64 sm(c.spec.seed ^ 0xA57C5EEDULL);
  const int rounds = 2 + static_cast<int>(sm.next() % 3);

  auto slot = per_rank<gas::GlobalPtr<std::uint64_t>>();
  for (int r = 0; r < kFuzzThreads; ++r) {
    slot[static_cast<std::size_t>(r)] = rt.heap().alloc<std::uint64_t>(
        r, kAsyncWords);
  }

  auto records = per_rank<std::vector<AsyncOpRecord>>();
  int stale_reads = 0;

  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    const int rank = t.rank();
    const auto next = static_cast<std::size_t>((rank + 1) % t.threads());
    std::vector<std::uint64_t> payload(kAsyncWords);
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t w = 0; w < kAsyncWords; ++w) {
        payload[w] = (static_cast<std::uint64_t>(rank) << 32) |
                     static_cast<std::uint64_t>(round) * kAsyncWords | w;
      }
      const std::uint64_t expect = payload[kAsyncWords - 1];

      auto& mine = records[static_cast<std::size_t>(rank)];
      const std::size_t idx = mine.size();
      mine.push_back(AsyncOpRecord{engine.now(), -1, 0});
      auto copied =
          t.launch_async(t.copy(slot[next], payload.data(), kAsyncWords))
              .then([&records, &engine, rank, idx] {
                AsyncOpRecord& op =
                    records[static_cast<std::size_t>(rank)][idx];
                ++op.completions;
                op.completed_at = engine.now();
              });
      // Read-your-writes probe: chained AFTER the copy resolves, the
      // destination rank reads its own slot — it must see the payload.
      auto probed =
          copied
              .then([&domain, &t, p = slot[next]] {
                return domain.call(t, p.owner, [p](gas::Thread&) {
                  return p.raw[kAsyncWords - 1];
                });
              })
              .then([&stale_reads, expect](const std::uint64_t& got) {
                if (got != expect) ++stale_reads;
              });
      // Unrelated concurrent RPC so completions from different op kinds
      // interleave under the storm.
      auto side = domain
                      .call(t, (rank + 3) % t.threads(),
                            [](gas::Thread& at, int x) { return x + at.rank(); },
                            round)
                      .then([](const int&) {});
      std::vector<async::future<>> pending;
      pending.push_back(std::move(probed));
      pending.push_back(std::move(side));
      co_await async::when_all(std::move(pending)).wait();
      co_await t.barrier();  // slots are reused next round
    }
  });
  c.run([&](Violations& out) {
    std::vector<AsyncOpRecord> all;
    for (const auto& ops : records) {
      all.insert(all.end(), ops.begin(), ops.end());
    }
    check_async_ordering(all, rt.counters(), out);
    if (stale_reads > 0) {
      out.push_back(
          "async read-your-writes: " + std::to_string(stale_reads) +
          " RPC probe(s) observed stale data after launched copy resolution");
    }
  });
}

// Team-collective workload: three seeded, mutually overlapping teams run a
// seeded schedule of broadcast / reduce / allgather / all-to-all calls with
// seeded algorithm choices (flat, hierarchical, ring, dissemination, or
// selector-driven). Every member folds the values each collective delivers
// to it into a running checksum; a closing allgather turns the per-member
// checksums into a team digest that every member must agree on, and the
// digests are compared against a host-side oracle — faults and algorithm
// choice may reshape the schedule, never the delivered bytes.
void run_teams(Case& c) {
  gas::Runtime& rt = c.rt;
  util::SplitMix64 sm(c.spec.seed ^ 0x7EA35EEDULL);

  // Shapes over the 8 fuzz ranks: the whole runtime, a contiguous window,
  // and a stride-2 comb. Every shape overlaps the others, so the per-(team,
  // op) matching keys are genuinely exercised by the interleaving.
  std::vector<std::vector<int>> shapes;
  shapes.push_back({0, 1, 2, 3, 4, 5, 6, 7});
  const int w = 3 + static_cast<int>(sm.next() % 4);
  const int at = static_cast<int>(
      sm.next() % static_cast<std::uint64_t>(kFuzzThreads - w + 1));
  std::vector<int> window;
  for (int i = 0; i < w; ++i) window.push_back(at + i);
  shapes.push_back(window);
  std::vector<int> comb;
  for (int r = static_cast<int>(sm.next() % 2); r < kFuzzThreads; r += 2) {
    comb.push_back(r);
  }
  shapes.push_back(comb);

  const int T = static_cast<int>(shapes.size());
  std::vector<std::unique_ptr<gas::Collectives>> colls;
  for (const auto& members : shapes) {
    colls.push_back(std::make_unique<gas::Collectives>(rt, members));
  }

  const auto pat = [](int call, int member, std::size_t i) {
    return static_cast<std::int64_t>(call + 1) * 1000003 +
           static_cast<std::int64_t>(member + 1) * 7919 +
           static_cast<std::int64_t>(i) * 13;
  };

  struct Call {
    int team = 0;
    gas::CollOp op = gas::CollOp::broadcast;
    gas::CollAlgo algo = gas::CollAlgo::automatic;
    std::size_t count = 0;
    int root = 0;
    std::vector<gas::GlobalPtr<std::int64_t>> bufs;
    std::vector<std::vector<std::int64_t>> send;  // all-to-all, per member
  };

  // Derive the schedule and the host-side oracle together: `want[t][m]` is
  // the checksum member m of team t must hold after a faithful run.
  static const gas::CollOp kOps[] = {
      gas::CollOp::broadcast, gas::CollOp::reduce, gas::CollOp::allgather,
      gas::CollOp::alltoall};
  const int rounds = 2 + static_cast<int>(sm.next() % 2);
  std::vector<Call> schedule;
  std::vector<std::vector<std::uint64_t>> want(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    want[static_cast<std::size_t>(t)]
        .assign(shapes[static_cast<std::size_t>(t)].size(), kFnvBasis);
  }
  std::uint64_t expected_calls = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int t = 0; t < T; ++t) {
      const auto& members = shapes[static_cast<std::size_t>(t)];
      const int n = static_cast<int>(members.size());
      Call call;
      call.team = t;
      call.op = kOps[sm.next() % 4];
      std::vector<gas::CollAlgo> algos = {gas::CollAlgo::automatic};
      for (gas::CollAlgo a : {gas::CollAlgo::flat, gas::CollAlgo::hier,
                              gas::CollAlgo::ring, gas::CollAlgo::dissem}) {
        if (gas::coll_algo_supported(call.op, a)) algos.push_back(a);
      }
      call.algo = algos[sm.next() % algos.size()];
      const std::size_t k = 2 + static_cast<std::size_t>(sm.next() % 7);
      call.count = k;
      call.root = static_cast<int>(sm.next() % static_cast<std::uint64_t>(n));
      const int ci = static_cast<int>(schedule.size());
      const std::size_t full = static_cast<std::size_t>(n) * k;
      const bool gathers = call.op == gas::CollOp::allgather ||
                           call.op == gas::CollOp::alltoall;
      for (int m = 0; m < n; ++m) {
        const auto mm = static_cast<std::size_t>(m);
        const bool root = m == call.root;
        // The flat reduce tree stages per-member slots at the root.
        const bool whole = gathers || (root && call.op == gas::CollOp::reduce);
        auto p = rt.heap().alloc<std::int64_t>(members[mm],
                                               whole ? full : k);  // zeroed
        std::uint64_t& h = want[static_cast<std::size_t>(t)][mm];
        switch (call.op) {
          case gas::CollOp::broadcast:
            for (std::size_t i = 0; i < k; ++i) {
              if (root) p.raw[i] = pat(ci, m, i);
              h = fnv_fold(h, pat(ci, call.root, i));
            }
            break;
          case gas::CollOp::reduce:
            for (std::size_t i = 0; i < k; ++i) {
              p.raw[i] = pat(ci, m, i);
              if (!root) continue;
              std::int64_t s = 0;
              for (int o = 0; o < n; ++o) s += pat(ci, o, i);
              h = fnv_fold(h, s);
            }
            break;
          case gas::CollOp::allgather:
            for (std::size_t i = 0; i < k; ++i) {
              p.raw[mm * k + i] = pat(ci, m, i);
            }
            break;
          case gas::CollOp::alltoall: {
            std::vector<std::int64_t> s(full);
            for (int dst = 0; dst < n; ++dst) {
              for (std::size_t i = 0; i < k; ++i) {
                s[static_cast<std::size_t>(dst) * k + i] =
                    pat(ci, m, i) + dst * 31;
              }
            }
            call.send.push_back(std::move(s));
            break;
          }
          case gas::CollOp::gather:
            break;  // never scheduled
        }
        // Both deliver a block from every member; all-to-all's is m's slice.
        if (gathers) {
          const std::int64_t shift =
              call.op == gas::CollOp::alltoall ? m * 31 : 0;
          for (int o = 0; o < n; ++o) {
            for (std::size_t i = 0; i < k; ++i) {
              h = fnv_fold(h, pat(ci, o, i) + shift);
            }
          }
        }
        call.bufs.push_back(p);
      }
      expected_calls += static_cast<std::uint64_t>(n);
      schedule.push_back(std::move(call));
    }
  }

  // Digest buffers for the closing per-team checksum allgather.
  std::vector<std::vector<gas::GlobalPtr<std::int64_t>>> dig(
      static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const auto& members = shapes[static_cast<std::size_t>(t)];
    for (std::size_t m = 0; m < members.size(); ++m) {
      auto p = rt.heap().alloc<std::int64_t>(members[m], members.size());
      dig[static_cast<std::size_t>(t)].push_back(p);
    }
    expected_calls += static_cast<std::uint64_t>(members.size());
  }

  std::vector<std::vector<std::uint64_t>> chk(static_cast<std::size_t>(T));
  std::vector<std::vector<std::uint64_t>> ops(static_cast<std::size_t>(T));
  std::vector<std::vector<std::uint64_t>> digest(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const std::size_t n = shapes[static_cast<std::size_t>(t)].size();
    chk[static_cast<std::size_t>(t)].assign(n, kFnvBasis);
    ops[static_cast<std::size_t>(t)].assign(n, 0);
    digest[static_cast<std::size_t>(t)].assign(n, 0);
  }

  const auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
  rt.spmd([&](gas::Thread& th) -> sim::Task<void> {
    for (const Call& call : schedule) {
      const auto tt = static_cast<std::size_t>(call.team);
      const int me = colls[tt]->index_of(th.rank());
      if (me < 0) continue;
      const int n = colls[tt]->size();
      switch (call.op) {
        case gas::CollOp::broadcast:
          co_await colls[tt]->broadcast(th, call.bufs, call.count, call.root,
                                        call.algo);
          break;
        case gas::CollOp::reduce:
          co_await colls[tt]->reduce(th, call.bufs, call.count, call.root,
                                     plus, call.algo);
          break;
        case gas::CollOp::allgather:
          co_await colls[tt]->allgather(th, call.bufs, call.count, call.algo);
          break;
        case gas::CollOp::alltoall:
          co_await colls[tt]->exchange(
              th, call.bufs, call.send[static_cast<std::size_t>(me)].data(),
              call.count, /*overlap=*/false, call.algo);
          break;
        case gas::CollOp::gather:
          break;
      }
      // Fold what this member received: the broadcast block, the reduced
      // block at the root, or one block from every member.
      std::size_t got = call.count;
      if (call.op == gas::CollOp::allgather ||
          call.op == gas::CollOp::alltoall) {
        got = static_cast<std::size_t>(n) * call.count;
      } else if (call.op == gas::CollOp::reduce && me != call.root) {
        got = 0;
      }
      std::uint64_t& h = chk[tt][static_cast<std::size_t>(me)];
      const std::int64_t* mine = call.bufs[static_cast<std::size_t>(me)].raw;
      for (std::size_t i = 0; i < got; ++i) h = fnv_fold(h, mine[i]);
      ++ops[tt][static_cast<std::size_t>(me)];
    }
    for (int t = 0; t < T; ++t) {
      const auto tt = static_cast<std::size_t>(t);
      const int me = colls[tt]->index_of(th.rank());
      if (me < 0) continue;
      const int n = colls[tt]->size();
      const auto mm = static_cast<std::size_t>(me);
      dig[tt][mm].raw[me] = static_cast<std::int64_t>(chk[tt][mm]);
      co_await colls[tt]->allgather(th, dig[tt], 1);
      std::uint64_t h = kFnvBasis;
      for (int m = 0; m < n; ++m) h = fnv_fold(h, dig[tt][mm].raw[m]);
      digest[tt][mm] = h;
      ++ops[tt][mm];
    }
  });
  c.run([&](Violations& out) {
    std::vector<TeamOpRecord> records;
    for (int t = 0; t < T; ++t) {
      const auto tt = static_cast<std::size_t>(t);
      for (std::size_t m = 0; m < shapes[tt].size(); ++m) {
        records.push_back(TeamOpRecord{t, static_cast<int>(m), ops[tt][m],
                                       digest[tt][m]});
      }
    }
    check_team_agreement(records, expected_calls, rt.counters(), out);
    for (int t = 0; t < T; ++t) {
      const auto tt = static_cast<std::size_t>(t);
      std::uint64_t h = kFnvBasis;
      for (std::size_t m = 0; m < shapes[tt].size(); ++m) {
        h = fnv_fold(h, want[tt][m]);
      }
      for (std::size_t m = 0; m < shapes[tt].size(); ++m) {
        if (digest[tt][m] != h) {
          out.push_back("teams oracle: team " + std::to_string(t) +
                        " member " + std::to_string(m) + " digest " +
                        std::to_string(digest[tt][m]) + " != expected " +
                        std::to_string(h));
        }
      }
    }
  });
}

// One strided or indexed op of run_vis, aimed at a peer's slab.
struct VisOp {
  int peer = 0;
  bool indexed = false;
  std::size_t base = 0;  // element offset into the peer's slab
  gas::StridedSpec sspec;
  gas::IndexedSpec ispec;
  std::vector<std::uint64_t> values;  // puts only: the source payload

  [[nodiscard]] std::size_t regions() const {
    return indexed ? ispec.regions.size() : sspec.regions();
  }
  [[nodiscard]] std::size_t elems() const {
    return indexed ? ispec.elems() : sspec.elems();
  }
  // Walk the footprint in spec order, calling f(slab_element_index).
  template <class F>
  void for_each_elem(F f) const {
    if (indexed) {
      for (const gas::IndexedSpec::Region& g : ispec.regions) {
        for (std::size_t l = 0; l < g.len; ++l) f(base + g.offset + l);
      }
    } else {
      for (std::size_t j = 0; j < sspec.extents[1]; ++j) {
        for (std::size_t l = 0; l < sspec.extents[0]; ++l) {
          f(base + j * sspec.strides[1] + l);
        }
      }
    }
  }
};

// VIS workload: every rank scatters seeded strided/indexed puts into
// disjoint slices of its peers' slabs, barriers, then gathers seeded
// strided/indexed footprints back out and folds a checksum. A host-side
// mirror applies the identical schedule to plain arrays: after the run the
// slabs must match the mirror bit-for-bit and every rank's checksum must
// match the mirror's fold. Alongside the data oracle, the schedule also
// yields a VisExpectation — every cross-node transfer with >= 2 regions
// must appear in the network's packed-message accounting exactly once,
// with its region count and payload bytes conserved (sum of region bytes
// == transferred payload), whatever delays or bandwidth dips the plan
// injects. Strides stay strictly wider than run lengths and indexed
// regions keep one-element gaps, so the lowering never merges runs and
// the expectation is exact.
void run_vis(Case& c) {
  gas::Runtime& rt = c.rt;
  constexpr std::size_t kSlab = 256;  // u64 words per rank's slab
  constexpr std::size_t kSlice = 32;  // per-source slice of every slab
  constexpr std::size_t kSub = 10;    // per-op sub-slice within the slice

  util::SplitMix64 sm(c.spec.seed ^ 0x0715DEEDULL);

  auto slab = per_rank<gas::GlobalPtr<std::uint64_t>>();
  auto mirror = per_rank(std::vector<std::uint64_t>(kSlab, 0));
  for (int r = 0; r < kFuzzThreads; ++r) {
    slab[static_cast<std::size_t>(r)] =
        rt.heap().alloc<std::uint64_t>(r, kSlab);  // zeroed, like mirror
  }

  const auto draw_shape = [&sm](VisOp& op, std::size_t budget) {
    op.indexed = sm.next() % 2 == 1;
    if (op.indexed) {
      const std::size_t k = 2 + sm.next() % 2;  // 2..3 regions
      std::size_t off = 0;
      for (std::size_t g = 0; g < k; ++g) {
        const std::size_t len = 1 + sm.next() % 2;  // 1..2 elements
        op.ispec.regions.push_back({off, len});
        off += len + 1;  // the gap keeps regions from merging
      }
    } else {
      const std::size_t len = 1 + sm.next() % 2;  // 1..2 elements per run
      const std::size_t n = 2 + sm.next() % 2;    // 2..3 runs
      op.sspec = gas::StridedSpec::rows(len, n, len + 1);  // stride > len
    }
    // Worst-case span is 9 elements; every shape must fit its budget.
    const std::size_t span =
        op.indexed ? op.ispec.regions.back().offset + op.ispec.regions.back().len
                   : (op.sspec.extents[1] - 1) * op.sspec.strides[1] +
                         op.sspec.extents[0];
    (void)span;
    (void)budget;
    assert(span <= budget);
  };

  VisExpectation expect;
  const auto note_expected = [&](const VisOp& op, int from) {
    if (rt.node_of(op.peer) == rt.node_of(from)) return;  // shm/loopback
    if (op.regions() < 2) return;  // plain transfer, no vis accounting
    ++expect.messages;
    expect.regions += static_cast<std::uint64_t>(op.regions());
    expect.payload_bytes +=
        static_cast<double>(op.elems()) * sizeof(std::uint64_t);
  };

  // Phase-1 schedule: per-rank puts into the rank's own slice of each
  // peer's slab, one sub-slice per op so footprints never overlap.
  auto puts = per_rank<std::vector<VisOp>>();
  for (int r = 0; r < kFuzzThreads; ++r) {
    const int nops = 2 + static_cast<int>(sm.next() % 2);  // 2..3 ops
    for (int i = 0; i < nops; ++i) {
      VisOp op;
      op.peer = static_cast<int>(
          sm.next() % static_cast<std::uint64_t>(kFuzzThreads - 1));
      if (op.peer >= r) ++op.peer;
      op.base = static_cast<std::size_t>(r) * kSlice +
                static_cast<std::size_t>(i) * kSub;
      draw_shape(op, kSub);
      op.values.resize(op.elems());
      for (std::uint64_t& v : op.values) v = sm.next();
      std::size_t idx = 0;
      op.for_each_elem([&](std::size_t e) {
        mirror[static_cast<std::size_t>(op.peer)][e] = op.values[idx++];
      });
      note_expected(op, r);
      puts[static_cast<std::size_t>(r)].push_back(std::move(op));
    }
  }

  // Phase-2 schedule: gathers over arbitrary slab windows (the mirror is
  // complete, so expected checksums fold host-side in the same order).
  auto gets = per_rank<std::vector<VisOp>>();
  auto want_chk = per_rank(kFnvBasis);
  for (int r = 0; r < kFuzzThreads; ++r) {
    const int nops = 1 + static_cast<int>(sm.next() % 2);  // 1..2 ops
    for (int i = 0; i < nops; ++i) {
      VisOp op;
      op.peer = static_cast<int>(
          sm.next() % static_cast<std::uint64_t>(kFuzzThreads - 1));
      if (op.peer >= r) ++op.peer;
      draw_shape(op, kSub);
      op.base = sm.next() % (kSlab - kSub);
      op.for_each_elem([&](std::size_t e) {
        auto& h = want_chk[static_cast<std::size_t>(r)];
        h = fnv_fold(h, mirror[static_cast<std::size_t>(op.peer)][e]);
      });
      note_expected(op, r);
      gets[static_cast<std::size_t>(r)].push_back(std::move(op));
    }
  }

  auto got_chk = per_rank(kFnvBasis);
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    const int r = t.rank();
    for (const VisOp& op : puts[static_cast<std::size_t>(r)]) {
      gas::GlobalPtr<std::uint64_t> dst{
          op.peer, slab[static_cast<std::size_t>(op.peer)].raw + op.base};
      if (op.indexed) {
        co_await t.copy_irregular(dst, op.ispec, op.values.data());
      } else {
        co_await t.copy_strided(dst, op.sspec, op.values.data());
      }
    }
    co_await t.barrier();
    for (const VisOp& op : gets[static_cast<std::size_t>(r)]) {
      std::vector<std::uint64_t> buf(op.elems());
      gas::GlobalPtr<std::uint64_t> src{
          op.peer, slab[static_cast<std::size_t>(op.peer)].raw + op.base};
      if (op.indexed) {
        co_await t.copy_irregular(buf.data(), src, op.ispec);
      } else {
        co_await t.copy_strided(buf.data(), src, op.sspec);
      }
      auto& h = got_chk[static_cast<std::size_t>(r)];
      for (std::uint64_t v : buf) h = fnv_fold(h, v);
    }
    co_await t.barrier();
  });
  c.run([&](Violations& out) {
    for (int r = 0; r < kFuzzThreads; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      for (std::size_t i = 0; i < kSlab; ++i) {
        if (slab[rr].raw[i] != mirror[rr][i]) {
          out.push_back("vis oracle: rank " + std::to_string(r) + " slab[" +
                        std::to_string(i) + "] = " +
                        std::to_string(slab[rr].raw[i]) + " != mirror " +
                        std::to_string(mirror[rr][i]));
          break;  // one divergence per rank keeps the report readable
        }
      }
      if (got_chk[rr] != want_chk[rr]) {
        out.push_back("vis oracle: rank " + std::to_string(r) +
                      " gather checksum " + std::to_string(got_chk[rr]) +
                      " != expected " + std::to_string(want_chk[rr]));
      }
    }
    check_vis_conservation(rt, expect, out);
  });
}

// KV workload: seeded put/get/update/erase sequences over mixed amo, rpc and
// auto paths, then cross-rank cached reads, against a host-side mirror.
void run_kv(Case& c) {
  gas::Runtime& rt = c.rt;
  async::RpcDomain rpc(rt);

  // Small shards force probe collisions and tombstone reuse; 64 keys over
  // 16 shards pile several keys onto every probe chain.
  constexpr std::uint64_t kKeys = 64;
  kv::KvStore::Params sp;
  sp.capacity = 32;
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt, 16), sp);

  // Plan every rank's op sequence host-side. Writers are key-partitioned
  // (key % ranks == rank), so per-rank sequential execution makes the
  // mirror exact whatever the cross-rank interleaving — the one insert
  // race the slot protocol leaves to callers never happens.
  util::SplitMix64 sm(c.spec.seed ^ 0x6B765EEDULL);
  struct KvPlanned {
    kv::KvOp op = kv::KvOp::get;
    kv::KvPath path = kv::KvPath::automatic;
    std::uint64_t key = 0;
    std::uint64_t value = 0;   // put value / update delta
    std::uint64_t want = 0;    // expected value (get/update)
    bool want_found = false;   // expected hit/ack
  };
  static const kv::KvPath kPaths[] = {kv::KvPath::automatic, kv::KvPath::amo,
                                      kv::KvPath::rpc};
  std::unordered_map<std::uint64_t, std::uint64_t> mirror;
  KvExpectation expect;
  auto phase_a = per_rank<std::vector<KvPlanned>>();
  for (int r = 0; r < kFuzzThreads; ++r) {
    const int nops = 16 + static_cast<int>(sm.next() % 17);  // 16..32
    auto& seq = phase_a[static_cast<std::size_t>(r)];
    seq.reserve(static_cast<std::size_t>(nops));
    for (int i = 0; i < nops; ++i) {
      KvPlanned op;
      op.key = static_cast<std::uint64_t>(r) +
               static_cast<std::uint64_t>(kFuzzThreads) *
                   (sm.next() % (kKeys / kFuzzThreads));
      op.path = kPaths[sm.next() % 3];
      const std::uint64_t kind = sm.next() % 100;
      const auto it = mirror.find(op.key);
      if (kind < 35) {
        op.op = kv::KvOp::put;
        op.value = sm.next();
        op.want_found = true;  // ack: chains never fill at this load
        mirror[op.key] = op.value;
        ++expect.puts;
      } else if (kind < 65) {
        op.op = kv::KvOp::get;
        op.want_found = it != mirror.end();
        op.want = op.want_found ? it->second : 0;
        ++expect.gets;
      } else if (kind < 85) {
        op.op = kv::KvOp::update;
        op.value = sm.next() % 1000;
        op.want_found = it != mirror.end();
        if (op.want_found) {
          it->second += op.value;
          op.want = it->second;
        }
        ++expect.updates;
      } else {
        op.op = kv::KvOp::erase;
        op.want_found = it != mirror.end();
        if (op.want_found) mirror.erase(it);
        ++expect.erases;
      }
      seq.push_back(op);
    }
  }

  // Phase B: cross-rank reads of the (now stable) final state, served
  // through a read-cache epoch — any key, any rank, mixed paths.
  auto phase_b = per_rank<std::vector<KvPlanned>>();
  for (int r = 0; r < kFuzzThreads; ++r) {
    auto& seq = phase_b[static_cast<std::size_t>(r)];
    for (int i = 0; i < 8; ++i) {
      KvPlanned op;
      op.op = kv::KvOp::get;
      op.key = sm.next() % kKeys;
      op.path = kPaths[sm.next() % 3];
      const auto it = mirror.find(op.key);
      op.want_found = it != mirror.end();
      op.want = op.want_found ? it->second : 0;
      seq.push_back(op);
      ++expect.gets;
    }
  }

  // Per-op observed results, compared host-side after the run.
  struct KvObserved {
    std::uint64_t value = 0;
    bool found = false;
  };
  auto got_a = per_rank<std::vector<KvObserved>>();
  auto got_b = per_rank<std::vector<KvObserved>>();

  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    const auto r = static_cast<std::size_t>(t.rank());
    for (const KvPlanned& op : phase_a[r]) {
      KvObserved got;
      switch (op.op) {
        case kv::KvOp::get: {
          const kv::KvHit h = co_await store.get(t, op.key, op.path);
          got = {h.value, h.found != 0};
          break;
        }
        case kv::KvOp::put:
          got.found = co_await store.put(t, op.key, op.value, op.path);
          break;
        case kv::KvOp::erase:
          got.found = co_await store.erase(t, op.key, op.path);
          break;
        case kv::KvOp::update: {
          const kv::KvHit h = co_await store.update(t, op.key, op.value,
                                                    op.path);
          got = {h.value, h.found != 0};
          break;
        }
      }
      got_a[r].push_back(got);
    }
    co_await t.barrier();
    {
      gas::CachedEpoch epoch(t);
      for (const KvPlanned& op : phase_b[r]) {
        const kv::KvHit h = co_await store.get(t, op.key, op.path);
        got_b[r].push_back({h.value, h.found != 0});
      }
    }
    co_await t.barrier();
  });

  const auto check_phase = [](Violations& out, const char* phase,
                              const std::vector<KvPlanned>& want,
                              const std::vector<KvObserved>& got, int r) {
    if (got.size() != want.size()) {
      out.push_back(std::string("kv oracle: rank ") + std::to_string(r) +
                    " completed " + std::to_string(got.size()) + "/" +
                    std::to_string(want.size()) + " " + phase + " ops");
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      const KvPlanned& w = want[i];
      const bool value_matters =
          w.want_found && (w.op == kv::KvOp::get || w.op == kv::KvOp::update);
      if (got[i].found != w.want_found ||
          (value_matters && got[i].value != w.want)) {
        out.push_back(
            std::string("kv oracle: rank ") + std::to_string(r) + " " +
            phase + " op " + std::to_string(i) + " (" +
            kv::kv_op_name(w.op) + " key " + std::to_string(w.key) +
            ") returned found=" + std::to_string(got[i].found) + " value " +
            std::to_string(got[i].value) + ", expected found=" +
            std::to_string(w.want_found) + " value " +
            std::to_string(w.want));
        break;  // one divergence per rank keeps the report readable
      }
    }
  };
  c.run([&](Violations& out) {
    for (int r = 0; r < kFuzzThreads; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      check_phase(out, "phase-a", phase_a[rr], got_a[rr], r);
      check_phase(out, "phase-b", phase_b[rr], got_b[rr], r);
    }
    check_kv_conservation(store, mirror, expect, out);
  });
}

struct Workload {
  const char* name;
  std::uint64_t weight;  // share of derive_case's draws
  void (*body)(Case&);
};

// Every fuzz workload, kept small so hundreds of cases fit a smoke budget.
// uts is weighted 2x: it exercises the most seams (steal, net, engine).
constexpr Workload kWorkloads[] = {
    {"uts", 2, run_uts},         {"ft", 1, run_ft},
    {"barrier", 1, run_barrier}, {"gather", 1, run_gather},
    {"async", 1, run_async},     {"teams", 1, run_teams},
    {"vis", 1, run_vis},         {"kv", 1, run_kv},
};

}  // namespace

std::string CaseSpec::replay_command() const {
  std::string cmd = "./hupc_bench --workload fuzz --budget 1 --fuzz-seed " +
                    std::to_string(seed);
  if (plant_split_bug) cmd += " --fuzz-test-bug";
  cmd += "  # equivalently: --fault-seed=" + std::to_string(seed) +
         " --fault-plan=" + plan;
  return cmd;
}

CaseSpec derive_case(std::uint64_t case_seed,
                     const std::vector<std::string>& templates,
                     bool plant_split_bug) {
  util::SplitMix64 sm(case_seed ^ 0xF0225EEDULL);
  CaseSpec spec;
  spec.seed = case_seed;
  std::uint64_t total = 0;
  for (const Workload& w : kWorkloads) total += w.weight;
  std::uint64_t pick = sm.next() % total;
  for (const Workload& w : kWorkloads) {
    if (pick < w.weight) {
      spec.workload = w.name;
      break;
    }
    pick -= w.weight;
  }
  spec.backend = sm.next() % 2 == 0 ? "processes" : "pthreads";
  static const char* const kConduits[] = {"ib-qdr", "ib-ddr", "gige"};
  spec.conduit = kConduits[sm.next() % 3];
  spec.plan = templates.empty()
                  ? "none"
                  : templates[sm.next() % templates.size()];
  spec.plant_split_bug = plant_split_bug && spec.workload == "uts";
  return spec;
}

CaseResult run_case(const CaseSpec& spec, const PlanParams& plan) {
  const Workload& w = util::lookup(kWorkloads, "workload", spec.workload);
  Case c(spec, plan);
  try {
    w.body(c);
  } catch (const std::exception& e) {
    c.fail(e);
  }
  return std::move(c.res);
}

CaseResult run_case(const CaseSpec& spec) {
  return run_case(spec, plan_template(spec.plan, spec.seed));
}

PlanParams Fuzzer::shrink(const CaseSpec& spec, PlanParams failing) {
  const auto still_fails = [&spec](const PlanParams& p) {
    return !run_case(spec, p).ok();
  };

  // Pass 1: drop whole perturbation groups while the failure persists. The
  // per-seam RNG streams are independent, so removing one group never
  // shifts another group's decisions.
  using Reduce = void (*)(PlanParams&);
  const Reduce group_off[] = {
      [](PlanParams& p) { p.event_jitter_p = 0.0; },
      [](PlanParams& p) { p.msg_delay_p = 0.0; },
      [](PlanParams& p) { p.msg_bw_degrade_p = 0.0; },
      [](PlanParams& p) { p.blackout_node = -1; },
      [](PlanParams& p) { p.steal_fail_p = 0.0; },
      [](PlanParams& p) { p.spawn_width_cap = 0; },
      [](PlanParams& p) { p.alloc_fail_after_bytes = 0; },
      [](PlanParams& p) { p.cache_invalidate_p = 0.0; },
      [](PlanParams& p) { p.completion_delay_p = 0.0; },
  };
  for (Reduce off : group_off) {
    PlanParams candidate = failing;
    off(candidate);
    if (still_fails(candidate)) failing = candidate;
  }

  // Pass 2: halve the magnitudes of whatever groups survived.
  const Reduce halve[] = {
      [](PlanParams& p) { p.event_jitter_p /= 2; p.event_jitter_max_s /= 2; },
      [](PlanParams& p) { p.msg_delay_p /= 2; p.msg_delay_max_s /= 2; },
      [](PlanParams& p) {
        p.msg_bw_degrade_p /= 2;
        p.msg_bw_floor += (1.0 - p.msg_bw_floor) / 2;  // milder dip
      },
      [](PlanParams& p) { p.blackout_duration_s /= 2; },
      [](PlanParams& p) { p.steal_fail_p /= 2; },
      [](PlanParams& p) { p.cache_invalidate_p /= 2; },
      [](PlanParams& p) {
        p.completion_delay_p /= 2;
        p.completion_delay_max_s /= 2;
      },
  };
  for (int round = 0; round < 3; ++round) {
    bool reduced = false;
    for (Reduce h : halve) {
      PlanParams candidate = failing;
      h(candidate);
      if (still_fails(candidate)) {
        failing = candidate;
        reduced = true;
      }
    }
    if (!reduced) break;
  }
  return failing;
}

FuzzReport Fuzzer::run(std::ostream& log) {
  FuzzReport report;
  for (int i = 0; i < opt_.budget; ++i) {
    const std::uint64_t seed = opt_.base_seed + static_cast<std::uint64_t>(i);
    const CaseSpec spec =
        derive_case(seed, opt_.templates, opt_.plant_split_bug);
    const CaseResult res = run_case(spec);
    ++report.cases_run;
    if (opt_.verbose) {
      log << "fuzz: seed=" << seed << " " << spec.workload << "/"
          << spec.backend << "/" << spec.conduit << "/" << spec.plan
          << (res.ok() ? " ok" : " FAIL") << " injected=" << res.injected
          << " t=" << sim::to_seconds(res.virtual_time) << "s\n";
    }
    if (res.ok()) continue;

    FuzzFailure failure;
    failure.spec = spec;
    failure.violations = res.violations;
    failure.shrunk = shrink(spec, plan_template(spec.plan, seed));
    log << "fuzz: FAIL seed=" << seed << " workload=" << spec.workload
        << " backend=" << spec.backend << " conduit=" << spec.conduit
        << " plan=" << spec.plan << "\n";
    for (const std::string& v : failure.violations) {
      log << "  violation: " << v << "\n";
    }
    log << "  shrunk:  " << failure.shrunk.describe() << "\n";
    log << "  replay:  " << spec.replay_command() << "\n";
    report.failures.push_back(std::move(failure));
  }
  log << "fuzz: " << report.cases_run << " cases, "
      << report.failures.size() << " failure(s)\n";
  return report;
}

}  // namespace hupc::fault
