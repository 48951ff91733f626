#include <gtest/gtest.h>

#include <vector>

#include "core/core.hpp"
#include "gas/gas.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using core::Team;
using gas::Config;
using gas::Runtime;
using gas::Thread;

Config cfg(int threads, int nodes) {
  Config c;
  c.machine = topo::lehman(nodes);
  c.threads = threads;
  return c;
}

TEST(Team, NodeTeamsPartitionRanks) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  auto teams = Team::all_node_teams(rt);
  ASSERT_EQ(teams.size(), 2u);
  EXPECT_EQ(teams[0].members(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(teams[1].members(), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(teams[0].index_of(2), 2);
  EXPECT_EQ(teams[1].index_of(2), -1);
  EXPECT_EQ(teams[1].index_of(6), 2);
  EXPECT_EQ(teams[1].members()[0], 4);
}

TEST(Team, SocketTeamsFollowPlacement) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 1));  // 8 on one node, cyclic over 2 sockets
  Team s0 = Team::socket_team(rt, 0, 0);
  Team s1 = Team::socket_team(rt, 0, 1);
  EXPECT_EQ(s0.members(), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(s1.members(), (std::vector<int>{1, 3, 5, 7}));
}

TEST(Team, OverlappingTeamsCoexist) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Team node0 = Team::node_team(rt, 0);
  Team evens(rt, {0, 2, 4, 6});  // spans both nodes, overlaps node0
  EXPECT_TRUE(node0.contains(2));
  EXPECT_TRUE(evens.contains(2));
  EXPECT_TRUE(evens.contains(4));
  EXPECT_FALSE(node0.contains(4));
}

TEST(Team, RejectsBadRankSets) {
  sim::Engine e;
  Runtime rt(e, cfg(4, 1));
  EXPECT_THROW(Team(rt, {}), std::invalid_argument);
  EXPECT_THROW(Team(rt, {1, 1}), std::invalid_argument);
  EXPECT_THROW(Team(rt, {0, 99}), std::invalid_argument);
  // Unsorted is allowed (split() emits key-ordered teams): member index is
  // the position in the rank list, whatever the order.
  Team t(rt, {2, 0, 3});
  EXPECT_EQ(t.members()[0], 2);
  EXPECT_EQ(t.index_of(2), 0);
  EXPECT_EQ(t.index_of(3), 2);
  EXPECT_EQ(t.index_of(1), -1);
}

TEST(Team, SplitPartitionsByColorOrderedByKey) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Team everyone(rt, {0, 1, 2, 3, 4, 5, 6, 7});
  // Color by parity; key reverses the order inside the odd subteam.
  const std::vector<int> colors = {0, 1, 0, 1, 0, 1, 0, 1};
  const std::vector<int> keys = {0, 7, 0, 5, 0, 3, 0, 1};
  auto subs = everyone.split(colors, keys);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].members(), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(subs[1].members(), (std::vector<int>{7, 5, 3, 1}));  // key order
  EXPECT_EQ(subs[1].index_of(7), 0);
  EXPECT_EQ(subs[1].index_of(1), 3);
}

TEST(Team, SplitNegativeColorJoinsNoTeam) {
  sim::Engine e;
  Runtime rt(e, cfg(4, 1));
  Team everyone(rt, {0, 1, 2, 3});
  auto subs = everyone.split({0, -1, 0, -1});
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].members(), (std::vector<int>{0, 2}));
  EXPECT_THROW(everyone.split({0, 1}), std::invalid_argument);
  EXPECT_THROW(everyone.split({0, 0, 0, 0}, {1, 2}), std::invalid_argument);
}

TEST(Team, SplitByNodeMatchesNodeTeams) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Team everyone(rt, {0, 1, 2, 3, 4, 5, 6, 7});
  auto subs = everyone.split_by_node();
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].members(), Team::node_team(rt, 0).members());
  EXPECT_EQ(subs[1].members(), Team::node_team(rt, 1).members());
  // A partial, unsorted parent splits into node groups in member order.
  Team ragged(rt, {5, 1, 0, 6});
  auto rsubs = ragged.split_by_node();
  ASSERT_EQ(rsubs.size(), 2u);
  EXPECT_EQ(rsubs[0].members(), (std::vector<int>{1, 0}));  // node 0, key order
  EXPECT_EQ(rsubs[1].members(), (std::vector<int>{5, 6}));  // node 1
}

TEST(Team, SplitBySocketCoversEveryMemberOnce) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 1));  // one node, cyclic over 2 sockets
  Team everyone(rt, {0, 1, 2, 3, 4, 5, 6, 7});
  auto subs = everyone.split_by_socket();
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].members(), Team::socket_team(rt, 0, 0).members());
  EXPECT_EQ(subs[1].members(), Team::socket_team(rt, 0, 1).members());
}

TEST(Team, LeaderTeamPicksFirstMemberPerNode) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Team everyone(rt, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(everyone.leader_team().members(), (std::vector<int>{0, 4}));
  Team ragged(rt, {6, 2, 1, 5});  // first member on node 1 is 6, node 0 is 2
  EXPECT_EQ(ragged.leader_team().members(), (std::vector<int>{2, 6}));
}

TEST(Team, SubteamsInheritTheSelector) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  gas::CollectiveSelector sel;
  sel.override_algo = gas::CollAlgo::hier;
  Team everyone(rt, {0, 1, 2, 3, 4, 5, 6, 7}, sel);
  std::vector<Team> subs = everyone.split({0, 1, 0, 1, 0, 1, 0, 1});
  for (auto& by_node : everyone.split_by_node()) subs.push_back(std::move(by_node));
  for (auto& by_socket : everyone.split_by_socket()) subs.push_back(std::move(by_socket));
  subs.push_back(everyone.leader_team());
  for (const auto& sub : subs) {
    EXPECT_EQ(sub.selector().override_algo, gas::CollAlgo::hier);
  }
  EXPECT_EQ(Team(rt, {0, 1}).selector().override_algo, gas::CollAlgo::automatic);
}

TEST(Team, BarrierGatesOnlyMembers) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Team node0 = Team::node_team(rt, 0);
  std::vector<sim::Time> after(8, -1);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (node0.contains(t.rank())) {
      co_await t.compute(1e-6 * (t.rank() + 1));
      co_await node0.barrier(t);
      after[static_cast<std::size_t>(t.rank())] = t.runtime().engine().now();
    }
    // Non-members never arrive; the team barrier must not deadlock on them.
  });
  rt.run_to_completion();
  for (int r = 1; r < 4; ++r) EXPECT_EQ(after[0], after[static_cast<std::size_t>(r)]);
  for (int r = 4; r < 8; ++r) EXPECT_EQ(after[static_cast<std::size_t>(r)], -1);
}

TEST(Team, IntraNodeBarrierCheaperThanGlobal) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Team node0 = Team::node_team(rt, 0);
  sim::Time team_done = 0, global_done = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (node0.contains(t.rank())) {
      co_await node0.barrier(t);
      if (t.rank() == 0) team_done = t.runtime().engine().now();
    }
    co_await t.barrier();
    if (t.rank() == 0) global_done = t.runtime().engine().now();
  });
  rt.run_to_completion();
  EXPECT_GT(global_done - team_done, team_done);  // network rounds dominate
}

TEST(Team, PointerTableMarksCastability) {
  sim::Engine e;
  auto c = cfg(8, 2);
  Runtime rt(e, c);
  auto arr = rt.heap().all_alloc<int>(64, 8);
  Team everyone(rt, {0, 1, 2, 3, 4, 5, 6, 7});
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      auto table = everyone.pointer_table(t, arr);
      for (int r = 0; r < 4; ++r) EXPECT_NE(table[static_cast<std::size_t>(r)], nullptr);
      for (int r = 4; r < 8; ++r) EXPECT_EQ(table[static_cast<std::size_t>(r)], nullptr);
      // The table gives direct load/store access to neighbours' slices.
      table[1][0] = 4242;
    }
    co_return;
  });
  rt.run_to_completion();
  EXPECT_EQ(arr.slice(1)[0], 4242);
}

}  // namespace
