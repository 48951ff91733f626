// Parameterized property sweeps across machine shapes, backends and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "gas/gas.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "topo/placement.hpp"
#include "trace/trace.hpp"
#include "uts/tree.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience

// --- placement properties over machine x thread-count ---------------------

struct PlacementCase {
  int nodes;
  int threads;
  int oversubscribed;  // ranks per node beyond the node's hardware threads
};

class PlacementSweep : public ::testing::TestWithParam<PlacementCase> {};

TEST_P(PlacementSweep, AllSlotsValidAndBlockwiseOverNodes) {
  const auto [nodes, threads, oversubscribed] = GetParam();
  const auto machine = topo::lehman(nodes);
  const auto placement = topo::place_ranks(machine, threads);
  ASSERT_EQ(placement.size(), static_cast<std::size_t>(threads));
  const int per_node = (threads + nodes - 1) / nodes;
  EXPECT_EQ(std::max(0, per_node - machine.hwthreads_per_node()),
            oversubscribed);
  for (int r = 0; r < threads; ++r) {
    const auto& loc = placement[static_cast<std::size_t>(r)];
    // Slot coordinates within bounds.
    EXPECT_GE(loc.node, 0);
    EXPECT_LT(loc.node, machine.nodes);
    EXPECT_LT(loc.socket, machine.sockets_per_node);
    EXPECT_LT(loc.core, machine.cores_per_socket);
    EXPECT_LT(loc.smt, machine.smt_per_core);
    // Blockwise node assignment.
    EXPECT_EQ(loc.node, r / per_node);
  }
}

TEST_P(PlacementSweep, NoSlotOversubscribedUntilHardwareExhausted) {
  const auto [nodes, threads, oversubscribed] = GetParam();
  const auto machine = topo::lehman(nodes);
  const auto placement = topo::place_ranks(machine, threads);
  topo::SlotAllocator slots(machine);
  for (const auto& loc : placement) slots.bind(loc);
  if (oversubscribed == 0) {
    for (const auto& loc : placement) {
      EXPECT_EQ(slots.contexts_on_slot(loc), 1)
          << "slot shared below hardware capacity";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlacementSweep,
    ::testing::Values(PlacementCase{1, 1, 0}, PlacementCase{1, 16, 0},
                      PlacementCase{4, 13, 0}, PlacementCase{8, 128, 0}));

// --- barrier linearizability over thread counts --------------------------

class BarrierSweep : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSweep, NobodyCrossesBeforeEveryoneArrives) {
  const int threads = GetParam();
  sim::Engine e;
  gas::Config c;
  c.machine = topo::lehman(4);
  c.threads = threads;
  gas::Runtime rt(e, c);
  util::Xoshiro256ss rng(static_cast<std::uint64_t>(threads));
  std::vector<sim::Time> delays(static_cast<std::size_t>(threads));
  for (auto& d : delays) d = static_cast<sim::Time>(rng.below(50'000));
  sim::Time last_arrival = 0;
  std::vector<sim::Time> crossings(static_cast<std::size_t>(threads));
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    co_await sim::delay(rt.engine(), delays[static_cast<std::size_t>(t.rank())]);
    last_arrival = std::max(last_arrival, rt.engine().now());
    co_await t.barrier();
    crossings[static_cast<std::size_t>(t.rank())] = rt.engine().now();
  });
  rt.run_to_completion();
  for (sim::Time cross : crossings) {
    EXPECT_GE(cross, last_arrival);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, BarrierSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 32, 64));

// --- work-stealing conservation over policy x diffusion x seed ------------

struct WsCase {
  std::uint32_t tree_seed;
  sched::VictimPolicy policy;
  bool rapid_diffusion;
  int threads;
};

class WsSweep : public ::testing::TestWithParam<WsCase> {};

TEST_P(WsSweep, ConservationAndTraceCountersAgreeWithStats) {
  const auto [seed, policy, diffusion, threads] = GetParam();
  uts::TreeParams tree;
  tree.b0 = 200;
  tree.root_seed = seed;
  const auto oracle = uts::enumerate(tree);

  sim::Engine e;
  trace::Tracer tracer;
  gas::Config c;
  c.machine = topo::lehman(4);
  c.threads = threads;
  c.tracer = &tracer;
  gas::Runtime rt(e, c);
  sched::StealParams params;
  params.policy = policy;
  params.rapid_diffusion = diffusion;
  sched::WorkStealing<uts::Node> ws(
      rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](gas::Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();

  // Conservation: processed == tree size; ratios well-formed; stacks empty.
  EXPECT_EQ(ws.total_processed(), oracle.nodes);
  EXPECT_GE(ws.local_steal_ratio(), 0.0);
  EXPECT_LE(ws.local_steal_ratio(), 1.0);
  std::uint64_t processed = 0, local = 0, remote = 0;
  for (int r = 0; r < threads; ++r) {
    const auto s = ws.stats(r);
    processed += s.processed;
    local += s.local_steals;
    remote += s.remote_steals;
    EXPECT_EQ(ws.stack(r).local_count(), 0u);
    EXPECT_EQ(ws.stack(r).shared_count(), 0u);
    EXPECT_EQ(tracer.counter("sched.terminated", r), 1u);
  }
  EXPECT_EQ(processed, oracle.nodes);

  // The stats are views over the tracer's registry; check them against the
  // counters they are not derived from (at every trace level).
  EXPECT_EQ(tracer.counter_total("sched.steal.success"), local + remote);
  EXPECT_EQ(tracer.counter_total("sched.terminated"),
            static_cast<std::uint64_t>(threads));
  // Every successful steal was also an attempt.
  EXPECT_GE(tracer.counter_total("sched.steal.attempt"), local + remote);
  if (!diffusion) {
    EXPECT_EQ(tracer.counter_total("sched.diffusion.split"), 0u);
  }
}

// Full cross: both policies x diffusion on/off x three seeds (thread count
// varies with the seed to also cover uneven rank/node splits).
std::vector<WsCase> ws_cases() {
  std::vector<WsCase> cases;
  const int threads_for_seed[] = {4, 9, 16};
  for (const auto policy :
       {sched::VictimPolicy::random, sched::VictimPolicy::local_first}) {
    for (const bool diffusion : {false, true}) {
      for (std::uint32_t seed = 1; seed <= 3; ++seed) {
        cases.push_back(
            WsCase{seed, policy, diffusion, threads_for_seed[seed - 1]});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, WsSweep, ::testing::ValuesIn(ws_cases()));

// --- SharedArray layout properties over (size, block, threads) -----------

struct LayoutCase {
  std::size_t size;
  std::size_t block;
  int threads;
};

class LayoutSweep : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(LayoutSweep, LocalSizesSumToTotalAndAddressesAreDistinct) {
  const auto [size, block, threads] = GetParam();
  gas::SharedHeap heap(threads);
  auto arr = heap.all_alloc<int>(size, block);
  std::size_t total = 0;
  for (int r = 0; r < threads; ++r) total += arr.local_size(r);
  EXPECT_EQ(total, size);
  // Ownership agrees with at(): element index maps into the owner's slice.
  for (std::size_t i = 0; i < size; ++i) {
    const auto p = arr.at(i);
    EXPECT_EQ(p.owner, arr.owner_of(i));
    *p.raw = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(*arr.at(i).raw, static_cast<int>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LayoutSweep,
    ::testing::Values(LayoutCase{1, 1, 1}, LayoutCase{17, 3, 4},
                      LayoutCase{64, 64, 4}, LayoutCase{100, 7, 6},
                      LayoutCase{255, 16, 16}, LayoutCase{1000, 1, 7}));

}  // namespace
