#include <gtest/gtest.h>

#include <vector>

#include "gas/gas.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "uts/tree.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using gas::Config;
using gas::Runtime;
using gas::Thread;
using sched::StealParams;
using sched::VictimPolicy;
using sched::WorkStealing;

Config cfg(int threads, int nodes, net::ConduitSpec conduit = net::ib_qdr()) {
  Config c;
  c.machine = topo::lehman(nodes);
  c.threads = threads;
  c.conduit = conduit;
  return c;
}

struct Item {
  int value;
  int splits_left;
};

// Each item with splits_left > 0 produces two children; total item count is
// exactly 2^(splits+1) - 1 per seeded item with `splits` budget.
void split_process(const Item& item, std::vector<Item>& out) {
  if (item.splits_left > 0) {
    out.push_back(Item{item.value * 2, item.splits_left - 1});
    out.push_back(Item{item.value * 2 + 1, item.splits_left - 1});
  }
}

TEST(WorkStealing, ProcessesEverySeededItemExactlyOnce) {
  sim::Engine e;
  Runtime rt(e, cfg(4, 2));
  StealParams params;
  params.batch = 4;
  WorkStealing<Item> ws(rt, params, split_process);
  ws.seed_work(0, {Item{1, 10}});  // 2^11 - 1 = 2047 items
  rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  EXPECT_EQ(ws.total_processed(), 2047u);
}

TEST(WorkStealing, WorkSpreadsAcrossRanks) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  StealParams params;
  params.granularity = 2;
  // A binary split tree keeps the DFS stack at ~depth items, so the release
  // threshold (2*chunk) must sit below that for any work to become visible.
  params.chunk = 2;
  WorkStealing<Item> ws(rt, params, split_process);
  ws.seed_work(0, {Item{1, 14}});  // 32767 items
  rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  EXPECT_EQ(ws.total_processed(), 32767u);
  int ranks_with_work = 0;
  for (int r = 0; r < 8; ++r) {
    if (ws.stats(r).processed > 0) ++ranks_with_work;
  }
  EXPECT_GE(ranks_with_work, 6);  // stealing distributed the tree
}

class PolicyParam
    : public ::testing::TestWithParam<std::tuple<VictimPolicy, bool>> {};

TEST_P(PolicyParam, UtsCountMatchesSequentialOracle) {
  const auto [policy, diffusion] = GetParam();
  uts::TreeParams tree;
  tree.b0 = 300;
  tree.root_seed = 5;
  const auto oracle = uts::enumerate(tree);

  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  StealParams params;
  params.policy = policy;
  params.rapid_diffusion = diffusion;
  WorkStealing<uts::Node> ws(
      rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  EXPECT_EQ(ws.total_processed(), oracle.nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyParam,
    ::testing::Values(std::tuple{VictimPolicy::random, false},
                      std::tuple{VictimPolicy::random, true},
                      std::tuple{VictimPolicy::local_first, false},
                      std::tuple{VictimPolicy::local_first, true}));

TEST(WorkStealing, SeedSweepConservationProperty) {
  // Property: for random trees, policies, and thread counts, the parallel
  // traversal visits exactly the sequential node count.
  for (std::uint32_t seed : {11u, 23u, 37u}) {
    uts::TreeParams tree;
    tree.b0 = 150;
    tree.root_seed = seed;
    const auto oracle = uts::enumerate(tree);
    for (int threads : {2, 5, 8}) {
      sim::Engine e;
      Runtime rt(e, cfg(threads, 2));
      StealParams params;
      params.policy = seed % 2 == 0 ? VictimPolicy::random
                                    : VictimPolicy::local_first;
      params.seed = seed;
      WorkStealing<uts::Node> ws(
          rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
            uts::expand(tree, n, out);
          });
      ws.seed_work(0, {uts::root_node(tree)});
      rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
      rt.run_to_completion();
      EXPECT_EQ(ws.total_processed(), oracle.nodes)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(WorkStealing, LocalFirstRaisesLocalStealRatio) {
  auto ratio = [](VictimPolicy policy) {
    uts::TreeParams tree;
    tree.b0 = 2000;
    tree.root_seed = 9;
    sim::Engine e;
    Runtime rt(e, cfg(16, 2));  // 8 ranks per node
    StealParams params;
    params.policy = policy;
    params.rapid_diffusion = true;
    WorkStealing<uts::Node> ws(
        rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
          uts::expand(tree, n, out);
        });
    ws.seed_work(0, {uts::root_node(tree)});
    rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
    rt.run_to_completion();
    return ws.local_steal_ratio();
  };
  const double random_ratio = ratio(VictimPolicy::random);
  const double local_ratio = ratio(VictimPolicy::local_first);
  EXPECT_GT(local_ratio, random_ratio);  // Table 3.2's effect
  EXPECT_GT(local_ratio, 0.5);
}

TEST(WorkStealing, LocalityPaysOffMoreOnSlowNetworks) {
  // Fig 3.3's headline: the optimization's relative gain is larger on
  // Ethernet than on InfiniBand.
  auto runtime_for = [](VictimPolicy policy, net::ConduitSpec conduit,
                        int granularity) {
    uts::TreeParams tree;
    tree.b0 = 2000;
    tree.root_seed = 9;
    sim::Engine e;
    Runtime rt(e, cfg(16, 2, conduit));
    StealParams params;
    params.policy = policy;
    params.rapid_diffusion = policy == VictimPolicy::local_first;
    params.granularity = granularity;
    WorkStealing<uts::Node> ws(
        rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
          uts::expand(tree, n, out);
        });
    ws.seed_work(0, {uts::root_node(tree)});
    rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  const double ib_gain =
      runtime_for(VictimPolicy::random, net::ib_qdr(), 8) /
      runtime_for(VictimPolicy::local_first, net::ib_qdr(), 8);
  const double eth_gain =
      runtime_for(VictimPolicy::random, net::gige(), 20) /
      runtime_for(VictimPolicy::local_first, net::gige(), 20);
  EXPECT_GT(eth_gain, 1.0);
  EXPECT_GT(eth_gain, ib_gain * 0.9);  // at least comparable, expected larger
}

// Rank 0, seeded with the root, releases surplus work to thieves before it
// ever steals anything itself; its sched.release count must show those
// releases, whatever happens afterwards.
TEST(WorkStealing, SeededRankReleaseCountIsFresh) {
  uts::TreeParams tree;
  tree.b0 = 300;
  tree.root_seed = 5;
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  WorkStealing<uts::Node> ws(
      rt, StealParams{},
      [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  const trace::Counters& counters = rt.counters();
  EXPECT_GT(counters.get("sched.release", 0), 0u);
  EXPECT_GT(counters.total("sched.steal.success"), 0u);  // thieves fed on it
}

TEST(WorkStealing, EmptyRunTerminatesImmediately) {
  sim::Engine e;
  Runtime rt(e, cfg(4, 1));
  WorkStealing<Item> ws(rt, StealParams{}, split_process);
  rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  EXPECT_EQ(ws.total_processed(), 0u);
}

TEST(StealStackUnit, OwnerOpsAndRelease) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 1));
  sched::StealStack<int> stack(rt, 0, 4);
  rt.spmd([&stack](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    for (int i = 0; i < 10; ++i) stack.push(i);
    EXPECT_EQ(stack.local_count(), 10u);
    co_await stack.maybe_release(t);  // 10 >= 2*4: releases one chunk of 4
    EXPECT_EQ(stack.local_count(), 6u);
    EXPECT_EQ(stack.shared_count(), 4u);
    int out = 0;
    EXPECT_TRUE(stack.pop(out));
    EXPECT_EQ(out, 9);  // LIFO at the top
    // The released items are the oldest (0..3).
    std::vector<int> loot;
    const std::size_t got = co_await stack.steal(t, loot, 2, false);
    EXPECT_EQ(got, 2u);
    EXPECT_EQ(loot[0], 0);
    EXPECT_EQ(loot[1], 1);
  });
  rt.run_to_completion();
}

TEST(StealStackUnit, StealHalfTakesHalfAboveThreshold) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 1));
  sched::StealStack<int> stack(rt, 0, 4);
  rt.spmd([&stack](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    for (int i = 0; i < 24; ++i) stack.push(i);
    co_await stack.maybe_release(t);
    co_await stack.maybe_release(t);
    co_await stack.maybe_release(t);
    EXPECT_EQ(stack.shared_count(), 12u);
    std::vector<int> loot;
    const std::size_t got = co_await stack.steal(t, loot, 2, true);
    EXPECT_EQ(got, 6u);  // half of 12, ignoring the granularity of 2
  });
  rt.run_to_completion();
}

}  // namespace
