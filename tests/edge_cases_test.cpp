// Edge cases and cross-cutting properties not covered by the per-module
// suites: degenerate configurations, atomics, eager/rendezvous boundaries,
// modeled-vs-real timing equivalence, and engine stress.
//
// Degenerate configurations (DESIGN.md §9) are two tables below: the configs
// the runtime must reject, each with the needle its diagnostic must mention
// and with magnitudes drawn from a seed so every seed probes a different
// member of each family; and the degenerate-but-legal machines, which must
// construct and then survive a micro-workload (self-messages, an empty
// transfer, two barriers) under quiescent and perturbing fault plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/subthread.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "gas/gas.hpp"
#include "mpl/mpi.hpp"
#include "sim/sim.hpp"
#include "toy_machine.hpp"
#include "util/rng.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using gas::Config;
using gas::Runtime;
using gas::Thread;

Config cfg(int threads, int nodes) {
  Config c;
  c.machine = topo::lehman(nodes);
  c.threads = threads;
  return c;
}

// --- degenerate configurations ---------------------------------------------

/// A config the runtime must reject, and the needle its
/// std::invalid_argument message must contain.
struct Rejection {
  std::string name;
  Config config;
  std::string needle;
};

/// Every rejection family (threads, machine shape, cost constants, conduit
/// bandwidths) as mutations of cfg(4, 2). The magnitudes are drawn from
/// `seed`: any negative cost and any non-positive count must be rejected,
/// not just the one value a hand-written test picked.
std::vector<Rejection> rejected_configs(std::uint64_t seed) {
  util::SplitMix64 sm(seed ^ 0xDE6E4EA7ULL);
  const int neg_small = -1 - static_cast<int>(sm.next() % 64);
  const double neg_cost = -1e-9 * static_cast<double>(1 + sm.next() % 1000);
  const double neg_bw = -1e6 * static_cast<double>(1 + sm.next() % 1000);

  std::vector<Rejection> all;
  const auto reject = [&all](std::string name, std::string needle,
                             const auto& mutate) {
    Config c = cfg(4, 2);
    mutate(c);
    all.push_back({std::move(name), std::move(c), std::move(needle)});
  };
  // thread counts
  reject("threads-zero", "threads", [](Config& c) { c.threads = 0; });
  reject("threads-negative", "threads",
         [&](Config& c) { c.threads = neg_small; });
  // machine shapes
  reject("machine-no-nodes", "machine shape",
         [](Config& c) { c.machine.nodes = 0; });
  reject("machine-no-sockets", "machine shape",
         [](Config& c) { c.machine.sockets_per_node = 0; });
  reject("machine-negative-cores", "machine shape",
         [&](Config& c) { c.machine.cores_per_socket = neg_small; });
  reject("machine-no-smt", "machine shape",
         [](Config& c) { c.machine.smt_per_core = 0; });
  // cost constants
  reject("cost-ptr-overhead", "ptr_overhead_s",
         [&](Config& c) { c.costs.ptr_overhead_s = neg_cost; });
  reject("cost-barrier-hop", "barrier_hop_s",
         [&](Config& c) { c.costs.barrier_hop_s = neg_cost; });
  reject("cost-lock-local", "lock_local_s",
         [&](Config& c) { c.costs.lock_local_s = neg_cost; });
  reject("cost-loopback-bw", "loopback_bw",
         [&](Config& c) { c.costs.loopback_bw = neg_bw; });
  reject("cost-shm-copy", "shm_copy_overhead_s",
         [&](Config& c) { c.costs.shm_copy_overhead_s = neg_cost; });
  reject("cost-loopback-overhead", "loopback_overhead_s",
         [&](Config& c) { c.costs.loopback_overhead_s = neg_cost; });
  // zero-capacity conduit links
  reject("conduit-dead-nic", "conduit",
         [](Config& c) { c.conduit.nic_bw = 0.0; });
  reject("conduit-negative-conn", "conduit",
         [&](Config& c) { c.conduit.conn_bw = neg_bw; });
  reject("conduit-dead-staging", "conduit",
         [](Config& c) { c.conduit.stage_bw = 0.0; });
  return all;
}

struct Accepted {
  std::string name;
  Config config;
};

/// The degenerate but legal machines, plus a sane baseline.
std::vector<Accepted> accepted_configs() {
  Config single;
  single.machine = test::toy_machine(1);
  single.threads = 1;
  return {{"single-core-single-thread", single},
          // 1 rank per node, most of the machine idle.
          {"more-nodes-than-threads", cfg(3, 12)},
          {"sane-baseline", cfg(8, 2)}};
}

/// Empty of violations when `config` constructs a runtime and `needle` is
/// empty, or when it is rejected with a message containing `needle`.
fault::Violations check_contract(const std::string& name, const Config& config,
                                 const std::string& needle) {
  fault::Violations out;
  try {
    sim::Engine engine;
    Runtime rt(engine, config);
    if (!needle.empty()) {
      out.push_back(name +
                    ": config accepted; expected rejection mentioning \"" +
                    needle + "\"");
    }
  } catch (const std::invalid_argument& err) {
    if (needle.empty()) {
      out.push_back(name + ": sane config rejected: " + err.what());
    } else if (std::string(err.what()).find(needle) == std::string::npos) {
      out.push_back(name + ": rejection message \"" + err.what() +
                    "\" does not mention \"" + needle + "\"");
    }
  }
  return out;
}

/// Runs the micro-workload (an empty transfer, a self-message roundtrip and
/// two barriers on every rank) under `plan` and checks what must survive any
/// perturbation: payload integrity, no network messages, conserved bytes,
/// barrier phases and sane virtual time.
fault::Violations run_micro_workload(const Accepted& a,
                                     const fault::PlanParams& plan) {
  fault::Violations out;
  sim::Engine engine;
  Runtime rt(engine, a.config);
  fault::FaultPlan fault(plan);
  fault.install(rt);

  const int n = rt.threads();
  auto cells = rt.heap().all_alloc<int>(static_cast<std::size_t>(n), 1);
  for (int r = 0; r < n; ++r) *cells.at(static_cast<std::size_t>(r)).raw = -1;

  std::vector<int> readback(static_cast<std::size_t>(n), -1);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    const auto me = static_cast<std::size_t>(t.rank());
    co_await t.barrier();
    // Empty transfer: must move nothing and inject no messages.
    co_await t.copy(cells.at(me), static_cast<const int*>(nullptr), 0);
    // Self-message: a rank writing and reading its own shared cell.
    co_await t.put(cells.at(me), 100 + t.rank());
    readback[me] = co_await t.get(cells.at(me));
    co_await t.barrier();
  });
  try {
    rt.run_to_completion();
  } catch (const std::exception& e) {
    out.push_back(a.name + ": exception: " + e.what());
    return out;
  }

  for (int r = 0; r < n; ++r) {
    if (readback[static_cast<std::size_t>(r)] != 100 + r) {
      out.push_back(a.name + ": rank " + std::to_string(r) +
                    " self-message readback " +
                    std::to_string(readback[static_cast<std::size_t>(r)]) +
                    " != " + std::to_string(100 + r));
    }
  }
  // Self-accesses and empty transfers never cross the wire.
  if (rt.network().total_messages() != 0) {
    out.push_back(a.name + ": " +
                  std::to_string(rt.network().total_messages()) +
                  " network messages from self/empty transfers (expected 0)");
  }
  fault::check_byte_conservation(rt, out);
  fault::check_barrier(rt, 2, out);
  fault::check_virtual_time(engine, out);
  return out;
}

TEST(Scenarios, RejectionAndAcceptanceContractsHold) {
  // Bad configs are rejected with a precise diagnostic, degenerate-but-legal
  // ones are not, across several seeds (each seed draws different
  // magnitudes).
  int rejecting = 0, accepting = 0;
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL, 12345ULL}) {
    for (const Rejection& r : rejected_configs(seed)) {
      for (const std::string& violation :
           check_contract(r.name, r.config, r.needle)) {
        ADD_FAILURE() << "seed " << seed << ": " << violation;
      }
      ++rejecting;
    }
    for (const Accepted& a : accepted_configs()) {
      for (const std::string& violation :
           check_contract(a.name, a.config, "")) {
        ADD_FAILURE() << "seed " << seed << ": " << violation;
      }
      ++accepting;
    }
  }
  // The tables keep covering both halves of the contract.
  EXPECT_GE(rejecting, 4 * 15);
  EXPECT_GE(accepting, 4 * 3);
}

TEST(Scenarios, AcceptedScenariosRunCleanUnderQuiescentPlan) {
  for (const Accepted& a : accepted_configs()) {
    for (const std::string& violation :
         run_micro_workload(a, fault::plan_template("none", 5))) {
      ADD_FAILURE() << violation;
    }
  }
}

TEST(Scenarios, AcceptedScenariosSurvivePerturbationPlans) {
  // Self-messages and empty transfers never touch the network, so payload
  // integrity and barrier linearizability must hold under ANY plan.
  for (const std::string plan : {"jitter", "latency-spike", "mixed"}) {
    for (const Accepted& a : accepted_configs()) {
      for (const std::string& violation :
           run_micro_workload(a, fault::plan_template(plan, 11))) {
        ADD_FAILURE() << plan << ": " << violation;
      }
    }
  }
}

TEST(ConfigValidation, AcceptsSaneConfigsUnchanged) {
  const Config c = cfg(8, 2);
  const Config v = gas::validated(c);
  EXPECT_EQ(v.threads, c.threads);
  EXPECT_EQ(v.machine.nodes, c.machine.nodes);
  sim::Engine e;
  Runtime rt(e, c);  // and the runtime constructor accepts it too
  EXPECT_EQ(rt.threads(), 8);
}

TEST(ConfigValidation, SubPoolRejectsNonPositiveWidth) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 1));
  int checked = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      for (const int width : {0, -1}) {
        try {
          core::SubPool pool(t, width, core::SubModel::openmp);
          ADD_FAILURE() << "SubPool accepted width " << width;
        } catch (const std::invalid_argument& err) {
          EXPECT_NE(std::string(err.what()).find("width"), std::string::npos)
              << err.what();
          ++checked;
        }
      }
      // width 1 (master only) is the smallest legal pool.
      core::SubPool pool(t, 1, core::SubModel::openmp);
      EXPECT_EQ(pool.width(), 1);
    }
    co_return;
  });
  rt.run_to_completion();
  EXPECT_EQ(checked, 2);
}

TEST(EngineStress, HundredThousandInterleavedEvents) {
  sim::Engine e;
  util::Xoshiro256ss rng(99);
  std::uint64_t sum = 0;
  for (int i = 0; i < 100000; ++i) {
    sim::call_at(e, static_cast<sim::Time>(rng.below(1000000)),
                 [&sum, i] { sum += static_cast<std::uint64_t>(i); });
  }
  e.run();
  EXPECT_EQ(e.events_executed(), 100000u);
  EXPECT_EQ(sum, 100000ull * 99999 / 2);
}

TEST(FluidLinkEdge, CapAboveCapacityIsHarmless) {
  sim::Engine e;
  sim::FluidLink link(e, 1e9);
  sim::spawn(e, [](sim::FluidLink& l) -> sim::Task<void> {
    co_await l.transfer(1e6, /*max_rate=*/5e9);  // cap above capacity
  }(link));
  e.run();
  EXPECT_NEAR(static_cast<double>(e.now()), 1e6, 100.0);
}

TEST(FluidLinkEdge, ManySmallTransfersConserve) {
  sim::Engine e;
  sim::FluidLink link(e, 1e9);
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    sim::spawn(e, [](sim::FluidLink& l, int& d) -> sim::Task<void> {
      co_await l.transfer(100.0);
      ++d;
    }(link, done));
  }
  e.run();
  EXPECT_EQ(done, 200);
  EXPECT_NEAR(link.total_bytes(), 20000.0, 1.0);
}

TEST(SemaphoreEdge, BatchReleaseWakesMultiple) {
  sim::Engine e;
  sim::Semaphore sem(e, 0);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim::spawn(e, [](sim::Semaphore& s, int& w) -> sim::Task<void> {
      co_await s.acquire();
      ++w;
    }(sem, woken));
  }
  sim::spawn(e, [](sim::Engine& eng, sim::Semaphore& s) -> sim::Task<void> {
    co_await sim::delay(eng, 10);
    s.release(3);
  }(e, sem));
  e.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(sem.available(), 0);
}

TEST(Atomics, FetchAddAccumulatesAcrossRanks) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  auto counter = rt.heap().alloc<long>(0, 1);
  *counter.raw = 0;
  std::vector<long> observed(8, -1);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      const long old = co_await t.fetch_add(counter, 1L);
      EXPECT_GE(old, 0);
      EXPECT_LT(old, 40);
    }
    co_await t.barrier();
    observed[static_cast<std::size_t>(t.rank())] = *counter.raw;
  });
  rt.run_to_completion();
  EXPECT_EQ(*counter.raw, 40);
  for (long v : observed) EXPECT_EQ(v, 40);
}

TEST(Atomics, CompareSwapOnlyOneWinner) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  auto flag = rt.heap().alloc<int>(0, 1);
  *flag.raw = 0;
  int winners = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    const int old = co_await t.compare_swap(flag, 0, t.rank() + 1);
    if (old == 0) ++winners;
  });
  rt.run_to_completion();
  EXPECT_EQ(winners, 1);
  EXPECT_NE(*flag.raw, 0);
}

TEST(Atomics, FetchXorIsInvolution) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 1));
  auto word = rt.heap().alloc<std::uint64_t>(1, 1);
  *word.raw = 0xDEADBEEFULL;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      (void)co_await t.fetch_xor(word, std::uint64_t{0x1234});
      (void)co_await t.fetch_xor(word, std::uint64_t{0x1234});
    }
  });
  rt.run_to_completion();
  EXPECT_EQ(*word.raw, 0xDEADBEEFULL);
}

TEST(MplEdge, EagerBoundaryExact) {
  // Messages at exactly kEagerLimit are eager; one byte more is rendezvous
  // — and both deliver the payload intact regardless of posting order.
  for (const std::size_t bytes :
       {mpl::Mpi::kEagerLimit, mpl::Mpi::kEagerLimit + 1}) {
    sim::Engine e;
    Runtime rt(e, cfg(2, 2));
    mpl::Mpi mpi(rt);
    std::vector<char> out(bytes, 'x'), in(bytes, 0);
    rt.spmd([&](Thread& t) -> sim::Task<void> {
      if (t.rank() == 0) {
        co_await mpi.send(t, 1, 1, out.data(), bytes);
      } else {
        co_await t.compute(1e-6);  // recv posted after the send
        co_await mpi.recv(t, 0, 1, in.data(), bytes);
      }
    });
    rt.run_to_completion();
    EXPECT_EQ(in, out) << bytes;
  }
}

TEST(MplEdge, ModeledAlltoallTimingEqualsRealData) {
  // The charge-only (nullptr) path must cost exactly what the real-data
  // path costs — otherwise FtModel's paper-size runs are measuring a
  // different algorithm.
  auto timed = [](bool real) {
    sim::Engine e;
    Runtime rt(e, cfg(8, 4));
    mpl::Mpi mpi(rt);
    const std::size_t per = 64 * 1024;
    static std::vector<std::vector<char>> send(8), recv(8);
    if (real) {
      for (int r = 0; r < 8; ++r) {
        send[static_cast<std::size_t>(r)].assign(8 * per, 'a');
        recv[static_cast<std::size_t>(r)].assign(8 * per, 'b');
      }
    }
    rt.spmd([&, real](Thread& t) -> sim::Task<void> {
      const auto r = static_cast<std::size_t>(t.rank());
      co_await mpi.alltoall(t, real ? send[r].data() : nullptr,
                            real ? recv[r].data() : nullptr, per);
    });
    rt.run_to_completion();
    return e.now();
  };
  EXPECT_EQ(timed(true), timed(false));
}

TEST(DegenerateMachines, CatalogueCoversAndRunsThem) {
  // The degenerate-but-legal machines (single core/single thread, more
  // nodes than ranks) come from the accepted-config table; beyond the shared
  // micro-workload, spot-check their placement arithmetic here.
  bool saw_single = false, saw_sparse = false;
  for (const Accepted& a : accepted_configs()) {
    if (a.name == "single-core-single-thread") {
      saw_single = true;
      EXPECT_EQ(a.config.threads, 1);
    }
    if (a.name == "more-nodes-than-threads") {
      saw_sparse = true;
      sim::Engine e;
      Runtime rt(e, a.config);
      EXPECT_EQ(rt.ranks_per_node(), 1);
      EXPECT_EQ(rt.nodes_used(), 3);
    }
    const fault::Violations v =
        run_micro_workload(a, fault::plan_template("none", 3));
    EXPECT_TRUE(v.empty()) << a.name << ": " << (v.empty() ? "" : v.front());
  }
  EXPECT_TRUE(saw_single);
  EXPECT_TRUE(saw_sparse);
}

TEST(GasEdge, MemcpySharedThirdParty) {
  // Rank 0 copies between two *other* ranks' segments (upc_memcpy).
  sim::Engine e;
  Runtime rt(e, cfg(4, 2));
  auto src = rt.heap().alloc<int>(1, 32);
  auto dst = rt.heap().alloc<int>(3, 32);
  for (int i = 0; i < 32; ++i) src.raw[i] = 500 + i;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      co_await t.copy(dst, gas::to_const(src), 32);
    }
  });
  rt.run_to_completion();
  EXPECT_EQ(dst.raw[31], 531);
}

TEST(GasEdge, ZeroByteCopyIsFreeAndSafe) {
  // Free even with a fault plan installed: a quiescent plan exposes no
  // hooks, and the message seam never sees a transfer that does not exist.
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  fault::FaultPlan plan(fault::plan_template("none", 8));
  plan.install(rt);
  auto dst = rt.heap().alloc<char>(1, 1);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      co_await t.copy(dst, static_cast<const char*>(nullptr), 0);
    }
  });
  rt.run_to_completion();
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(rt.network().total_messages(), 0u);
  EXPECT_EQ(plan.stats().total(), 0u);
}

TEST(GasEdge, BarrierPhaseCountsMatchCalls) {
  sim::Engine e;
  Runtime rt(e, cfg(4, 1));
  rt.spmd([](Thread& t) -> sim::Task<void> {
    for (int i = 0; i < 7; ++i) co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(rt.global_barrier().phase(), 7u);
}

TEST(GasEdge, SplitPhaseBarrierOverlapsWork) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 1));
  sim::Time overlapped_done = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      const auto token = t.notify();
      co_await t.compute(100e-6);  // overlapped with rank 1's arrival
      overlapped_done = t.runtime().engine().now();
      co_await t.wait(token);
    } else {
      co_await t.compute(100e-6);
      const auto token = t.notify();
      co_await t.wait(token);
    }
  });
  rt.run_to_completion();
  // Rank 0's work finished at ~100 us, the same time rank 1 arrived: the
  // barrier cost anything beyond the overlap, not 2x the work.
  EXPECT_LT(sim::to_seconds(e.now()), 110e-6);
  EXPECT_NEAR(sim::to_seconds(overlapped_done), 100e-6, 1e-6);
}

}  // namespace
