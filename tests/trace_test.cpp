// Tracer behavior under real workloads: UTS and a STREAM-style triad run
// with a tracer attached under both backends, verifying that (a) results
// are backend-independent and tracing never perturbs them, (b) same-seed
// runs produce bit-identical event streams, and (c) summary aggregates
// (per-category virtual-time totals, counters) are well-formed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gas/gas.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"
#include "uts/tree.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience

// --- Tracer unit behavior -------------------------------------------------

TEST(TracerUnit, RecordsAndStampsWithInstalledClock) {
  trace::Tracer t;
  trace::VTime now = 0;
  t.set_clock([&now] { return now; });
  now = 7;
  t.instant(trace::Category::user, "a", 0, 1, 2);
  now = 11;
  t.begin(trace::Category::user, "b", 1);
  now = 20;
  t.end(trace::Category::user, "b", 1);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ts, 7);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].a0, 1u);
  EXPECT_EQ(events[0].a1, 2u);
  EXPECT_EQ(events[1].ts, 11);
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_EQ(events[2].ts, 20);
  EXPECT_EQ(events[2].phase, 'E');
  const auto s = t.summary();
  EXPECT_EQ(s.events[static_cast<int>(trace::Category::user)], 2u);
  EXPECT_EQ(s.rank_time[2][static_cast<int>(trace::Category::user)], 9);
}

TEST(TracerUnit, RingOverwritesOldestAndCountsDrops) {
  trace::Tracer t(4);
  for (int i = 0; i < 10; ++i) {
    t.instant(trace::Category::user, "e", 0, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_EQ(t.size(), 4u);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].a0,
              static_cast<std::uint64_t>(6 + i));
  }
}

TEST(TracerUnit, CountersPerRankIncludingEngineLane) {
  trace::Tracer t;
  const trace::CounterId x = trace::intern("x");
  t.counters().add(x, trace::kEngineRank, 3);
  t.counters().add(x, 0);
  t.counters().add(x, 2, 5);
  EXPECT_EQ(t.counter("x", trace::kEngineRank), 3u);
  EXPECT_EQ(t.counter("x", 0), 1u);
  EXPECT_EQ(t.counter("x", 1), 0u);
  EXPECT_EQ(t.counter("x", 2), 5u);
  EXPECT_EQ(t.counter_total("x"), 9u);
  EXPECT_EQ(t.counter_total("missing"), 0u);
}

TEST(TracerUnit, ClearResetsEventsAndCountersButKeepsTopology) {
  trace::Tracer t;
  t.set_rank_nodes({0, 0, 1, 1});
  t.instant(trace::Category::user, "e", 0);
  t.counters().add(trace::intern("c"), 1);
  t.clear();
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.counter_total("c"), 0u);
  EXPECT_EQ(t.ranks(), 4);
  EXPECT_EQ(t.node_of(3), 1);
}

TEST(TracerUnit, ScopeIsNullSafeAndPairsBeginEnd) {
  { trace::Scope nop(nullptr, trace::Category::user, "x", 0); }
  trace::Tracer t;
  {
    trace::Scope s(&t, trace::Category::user, "x", 0, 42);
  }
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].a0, 42u);
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_STREQ(events[1].name, "x");
}

TEST(TracerUnit, SummaryClosesUnmatchedBeginAtLastRetainedTimestamp) {
  trace::Tracer t;
  trace::VTime now = 0;
  t.set_clock([&now] { return now; });
  now = 5;
  t.begin(trace::Category::gas, "open", 0);
  now = 30;
  t.instant(trace::Category::gas, "late", 0);
  const auto s = t.summary();
  // The open B is closed at ts=30: 25 ns of gas time for rank 0.
  EXPECT_EQ(s.rank_time[1][static_cast<int>(trace::Category::gas)], 25);
}

// --- Counter registry -------------------------------------------------------

TEST(Counters, IdIsStableAcrossRegistries) {
  const trace::CounterId id = trace::intern("test.stable");
  EXPECT_EQ(trace::intern("test.stable"), id);
  EXPECT_NE(trace::intern("test.other"), id);
  EXPECT_EQ(trace::name_of(id), "test.stable");
  trace::Counters a;
  trace::Counters b;
  a.add(id, 0, 2);
  b.add(trace::intern("test.stable"), 0, 3);
  EXPECT_EQ(a.get("test.stable", 0), 2u);
  EXPECT_EQ(b.get(id, 0), 3u);
}

TEST(Counters, LanesGrowOnDemandAndEngineLaneIsLaneZero) {
  trace::Counters c;
  const trace::CounterId id = trace::intern("test.lanes");
  EXPECT_EQ(c.get(id, 5), 0u);  // never touched: reads zero, grows nothing
  EXPECT_TRUE(c.snapshot().empty());
  c.add(id, 3, 4);
  c.add(id, trace::kEngineRank);
  const auto snap = c.snapshot();
  ASSERT_EQ(snap.count("test.lanes"), 1u);
  const std::vector<std::uint64_t> lanes = snap.at("test.lanes");
  ASSERT_EQ(lanes.size(), 5u);  // engine lane + ranks 0..3
  EXPECT_EQ(lanes[0], 1u);      // the engine lane
  EXPECT_EQ(lanes[4], 4u);      // rank 3
  EXPECT_EQ(c.get(id, trace::kEngineRank), 1u);
  EXPECT_EQ(c.get(id, 3), 4u);
  EXPECT_EQ(c.get(id, 9), 0u);
  EXPECT_EQ(c.total(id), 5u);
}

TEST(Counters, SnapshotListsOnlyTouchedNamesSorted) {
  // Interned ids are process-wide, so ids other registries (and every
  // layer's counters) use must not leak into this registry's export.
  (void)trace::intern("test.snapshot.untouched");
  trace::Counters c;
  c.add(trace::intern("test.snapshot.zeta"), 0);
  c.add(trace::intern("test.snapshot.alpha"), 1, 0);  // zero delta touches
  c.add(trace::intern("test.snapshot.mid"), trace::kEngineRank, 2);
  const auto snap = c.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, lanes] : snap) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"test.snapshot.alpha",
                                             "test.snapshot.mid",
                                             "test.snapshot.zeta"}));
  c.clear();
  EXPECT_TRUE(c.snapshot().empty());
}

TEST(Counters, TracerCountsSurviveEngineDestruction) {
  trace::Tracer tracer;
  std::uint64_t dispatched = 0;
  {
    sim::Engine e;
    e.counters().add(trace::intern("test.before_attach"), 0);
    gas::Config c;
    c.machine = topo::lehman(2);
    c.threads = 4;
    c.tracer = &tracer;
    gas::Runtime rt(e, c);
    EXPECT_EQ(&rt.counters(), &tracer.counters());
    rt.spmd([](gas::Thread& t) -> sim::Task<void> { co_await t.barrier(); });
    rt.run_to_completion();
    dispatched = e.events_executed();
  }
  // Runtime and engine are gone; the tracer still holds every count.
  EXPECT_GT(dispatched, 0u);
  EXPECT_EQ(tracer.counter("engine.dispatch", trace::kEngineRank), dispatched);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(tracer.counter("gas.barrier", r), 1u);
  EXPECT_EQ(tracer.summary().counter_total("gas.barrier"), 4u);
  // Counts made before the tracer was attached stay in the engine's own
  // registry.
  EXPECT_EQ(tracer.counter_total("test.before_attach"), 0u);
}

// --- UTS under both backends with a tracer attached -----------------------

struct UtsOutcome {
  std::uint64_t nodes = 0;
  sim::Time elapsed = 0;
};

// Every TraceUts case searches one tree. Under AddressSanitizer the
// 2,909,681-node tree at b0 = 200 takes 32-60 s per case on a 4-vCPU VM
// against a 60 s ctest budget, so an ASan build keeps the root's first 72
// subtrees, 1,017 nodes. (The 73rd alone adds 2.9 M, nearly all of the
// tree, so no b0 in between is much smaller.) What the cases compare
// (oracle node counts, traced against bare runs, two runs of one seed,
// category totals) does not depend on the size.
#if defined(__SANITIZE_ADDRESS__)
constexpr int kTreeB0 = 72;
#else
constexpr int kTreeB0 = 200;
#endif

uts::TreeParams traced_tree() {
  uts::TreeParams tree;
  tree.b0 = kTreeB0;
  tree.root_seed = 7;
  return tree;
}

UtsOutcome run_uts_traced(gas::Backend backend, trace::Tracer* tracer) {
  const uts::TreeParams tree = traced_tree();
  sim::Engine e;
  gas::Config c;
  c.machine = topo::lehman(2);
  c.threads = 8;
  c.backend = backend;
  c.tracer = tracer;
  gas::Runtime rt(e, c);
  sched::StealParams params;
  params.policy = sched::VictimPolicy::local_first;
  params.rapid_diffusion = true;
  sched::WorkStealing<uts::Node> ws(
      rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](gas::Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  return {ws.total_processed(), e.now()};
}

TEST(TraceUts, NodeCountsMatchOracleOnBothBackends) {
  const auto oracle = uts::enumerate(traced_tree());
  for (const auto backend : {gas::Backend::processes, gas::Backend::pthreads}) {
    trace::Tracer tracer;
    const auto r = run_uts_traced(backend, &tracer);
    EXPECT_EQ(r.nodes, oracle.nodes);
    // Counting is on at every trace level; only events are compiled out.
    EXPECT_EQ(tracer.counter_total("sched.processed"), oracle.nodes);
    if (trace::kEnabled) {
      EXPECT_GT(tracer.recorded(), 0u);
    }
  }
}

TEST(TraceUts, TracerAttachmentDoesNotPerturbVirtualTime) {
  for (const auto backend : {gas::Backend::processes, gas::Backend::pthreads}) {
    trace::Tracer tracer;
    const auto traced = run_uts_traced(backend, &tracer);
    const auto bare = run_uts_traced(backend, nullptr);
    EXPECT_EQ(traced.elapsed, bare.elapsed);
    EXPECT_EQ(traced.nodes, bare.nodes);
  }
}

TEST(TraceUts, SameSeedRunsProduceIdenticalEventStreams) {
  for (const auto backend : {gas::Backend::processes, gas::Backend::pthreads}) {
    trace::Tracer t1, t2;
    (void)run_uts_traced(backend, &t1);
    (void)run_uts_traced(backend, &t2);
    EXPECT_EQ(t1.recorded(), t2.recorded());
    const auto e1 = t1.snapshot();
    const auto e2 = t2.snapshot();
    ASSERT_EQ(e1.size(), e2.size());
    EXPECT_TRUE(std::equal(e1.begin(), e1.end(), e2.begin()));
    const auto s1 = t1.summary();
    const auto s2 = t2.summary();
    EXPECT_EQ(s1.events, s2.events);
    EXPECT_EQ(s1.counters, s2.counters);
    EXPECT_EQ(s1.rank_time, s2.rank_time);
  }
}

TEST(TraceUts, CategoryTimeTotalsAreNonNegativeAndBounded) {
  trace::Tracer tracer;
  const auto r = run_uts_traced(gas::Backend::processes, &tracer);
  const auto s = tracer.summary();
  ASSERT_EQ(s.rank_time.size(), 9u);  // engine lane + 8 ranks
  for (const auto& per_rank : s.rank_time) {
    for (const trace::VTime ns : per_rank) {
      EXPECT_GE(ns, 0);
      // A lane cannot accumulate more time in one category than the whole
      // simulation lasted (scopes of one category on one lane nest, they
      // don't overlap).
      EXPECT_LE(ns, r.elapsed);
    }
  }
  if (trace::kEnabled) {
    EXPECT_GT(s.category_time(trace::Category::sched), 0);
  }
}

TEST(TraceUts, CategoryTimeTotalsAreMonotoneUnderAccumulation) {
  // Two runs appended into one tracer without clear(): every per-rank
  // per-category total can only grow.
  trace::Tracer tracer;
  (void)run_uts_traced(gas::Backend::processes, &tracer);
  const auto first = tracer.summary();
  (void)run_uts_traced(gas::Backend::processes, &tracer);
  const auto second = tracer.summary();
  ASSERT_EQ(first.rank_time.size(), second.rank_time.size());
  for (std::size_t lane = 0; lane < first.rank_time.size(); ++lane) {
    for (int cat = 0; cat < trace::kCategories; ++cat) {
      EXPECT_GE(second.rank_time[lane][static_cast<std::size_t>(cat)],
                first.rank_time[lane][static_cast<std::size_t>(cat)])
          << "lane " << lane << " category " << cat;
    }
  }
  for (int cat = 0; cat < trace::kCategories; ++cat) {
    EXPECT_GE(second.events[static_cast<std::size_t>(cat)],
              first.events[static_cast<std::size_t>(cat)]);
  }
}

// --- STREAM-style triad over real shared arrays ---------------------------

struct TriadOutcome {
  double checksum = 0.0;
  sim::Time elapsed = 0;
};

// c[i] = a[i] + alpha * b[(i+17) % n] over blocked shared arrays: the
// shifted b index crosses ownership boundaries, exercising both privatized
// (same-supernode) and translated/remote access paths.
TriadOutcome run_triad(gas::Backend backend, trace::Tracer* tracer) {
  constexpr std::size_t kN = 256;
  constexpr double kAlpha = 3.0;
  sim::Engine e;
  gas::Config c;
  c.machine = topo::lehman(2);
  c.threads = 8;
  c.backend = backend;
  c.tracer = tracer;
  gas::Runtime rt(e, c);
  auto a = rt.heap().all_alloc<double>(kN, kN / 8);
  auto b = rt.heap().all_alloc<double>(kN, kN / 8);
  auto out = rt.heap().all_alloc<double>(kN, kN / 8);
  for (std::size_t i = 0; i < kN; ++i) {
    *a.at(i).raw = static_cast<double>(i) * 0.5;
    *b.at(i).raw = static_cast<double>(i % 13) - 6.0;
    *out.at(i).raw = 0.0;
  }
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    for (std::size_t i = 0; i < kN; ++i) {
      if (out.owner_of(i) != t.rank()) continue;
      const double av = co_await t.get(a.at(i));
      const double bv = co_await t.get(b.at((i + 17) % kN));
      co_await t.put(out.at(i), av + kAlpha * bv);
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  TriadOutcome result;
  result.elapsed = e.now();
  for (std::size_t i = 0; i < kN; ++i) result.checksum += *out.at(i).raw;
  return result;
}

TEST(TraceTriad, ChecksumIdenticalAcrossBackendsAndMatchesSerial) {
  constexpr std::size_t kN = 256;
  double expect = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    expect += static_cast<double>(i) * 0.5 +
              3.0 * (static_cast<double>(((i + 17) % kN) % 13) - 6.0);
  }
  trace::Tracer tp, tt;
  const auto procs = run_triad(gas::Backend::processes, &tp);
  const auto pthr = run_triad(gas::Backend::pthreads, &tt);
  EXPECT_DOUBLE_EQ(procs.checksum, expect);
  EXPECT_DOUBLE_EQ(pthr.checksum, expect);
  EXPECT_DOUBLE_EQ(procs.checksum, pthr.checksum);
  // Both runs touched the gas layer and counted it (recording events
  // needs the instrumentation compiled in).
  EXPECT_GT(tp.counter_total("gas.access.translated") +
                tp.counter_total("gas.access.privatized"),
            0u);
  if (trace::kEnabled) {
    EXPECT_GT(tt.recorded(), 0u);
  }
}

TEST(TraceTriad, SameSeedRunsProduceIdenticalEventStreams) {
  for (const auto backend : {gas::Backend::processes, gas::Backend::pthreads}) {
    trace::Tracer t1, t2;
    const auto r1 = run_triad(backend, &t1);
    const auto r2 = run_triad(backend, &t2);
    EXPECT_EQ(r1.elapsed, r2.elapsed);
    EXPECT_DOUBLE_EQ(r1.checksum, r2.checksum);
    const auto e1 = t1.snapshot();
    const auto e2 = t2.snapshot();
    ASSERT_EQ(e1.size(), e2.size());
    EXPECT_TRUE(std::equal(e1.begin(), e1.end(), e2.begin()));
  }
}

TEST(TraceTriad, TracerAttachmentDoesNotPerturbVirtualTime) {
  trace::Tracer tracer;
  const auto traced = run_triad(gas::Backend::processes, &tracer);
  const auto bare = run_triad(gas::Backend::processes, nullptr);
  EXPECT_EQ(traced.elapsed, bare.elapsed);
  EXPECT_DOUBLE_EQ(traced.checksum, bare.checksum);
}

}  // namespace
