// Team-scoped collectives: the GASNet-teams facility of thesis §3.2.1.
#include <gtest/gtest.h>

#include <vector>

#include "core/core.hpp"
#include "gas/gas.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using core::Team;
using gas::Collectives;
using gas::Config;
using gas::GlobalPtr;
using gas::Runtime;
using gas::Thread;

Config cfg(int threads, int nodes) {
  Config c;
  c.machine = topo::lehman(nodes);
  c.threads = threads;
  return c;
}

TEST(TeamCollectives, BroadcastWithinOneNodeTeam) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Team node0 = Team::node_team(rt, 0);  // ranks 0..3
  const std::size_t count = 8;
  std::vector<GlobalPtr<int>> bufs;
  for (int r : node0.members()) bufs.push_back(rt.heap().alloc<int>(r, count));
  for (std::size_t i = 0; i < count; ++i) bufs[1].raw[i] = 70 + static_cast<int>(i);

  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (node0.contains(t.rank())) {
      co_await node0.broadcast(t, bufs, count, /*team root=*/1);
    }
    // Non-members do nothing and must not be required.
  });
  rt.run_to_completion();
  for (std::size_t m = 0; m < bufs.size(); ++m) {
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(bufs[m].raw[i], 70 + static_cast<int>(i)) << m << "," << i;
    }
  }
}

TEST(TeamCollectives, ReduceOverSocketTeam) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 1));
  Team socket1 = Team::socket_team(rt, 0, 1);  // ranks 1,3,5,7
  const std::size_t count = 4;
  std::vector<GlobalPtr<long>> bufs;
  for (std::size_t m = 0; m < static_cast<std::size_t>(socket1.size()); ++m) {
    const int r = socket1.members()[m];
    const std::size_t n =
        m == 0 ? count * static_cast<std::size_t>(socket1.size()) : count;
    bufs.push_back(rt.heap().alloc<long>(r, n));
    for (std::size_t i = 0; i < count; ++i) {
      bufs.back().raw[i] = static_cast<long>(10 * (r + 1) + static_cast<int>(i));
    }
  }
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (socket1.contains(t.rank())) {
      co_await socket1.reduce(t, bufs, count, 0, [](long a, long b) { return a + b; });
    }
  });
  rt.run_to_completion();
  for (std::size_t i = 0; i < count; ++i) {
    long expected = 0;
    for (int r : socket1.members()) expected += 10 * (r + 1) + static_cast<int>(i);
    EXPECT_EQ(bufs[0].raw[i], expected);
  }
}

TEST(TeamCollectives, ExchangeWithinTeamTouchesOnlyMembers) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Team evens(rt, {0, 2, 4, 6});
  const std::size_t count = 2;
  const auto n = static_cast<std::size_t>(evens.size());
  std::vector<GlobalPtr<int>> recv;
  for (int r : evens.members()) {
    recv.push_back(rt.heap().alloc<int>(r, n * count));
    for (std::size_t i = 0; i < n * count; ++i) recv.back().raw[i] = -1;
  }
  std::vector<std::vector<int>> send(n);
  for (std::size_t m = 0; m < n; ++m) {
    send[m].resize(n * count);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < count; ++i) {
        send[m][p * count + i] =
            static_cast<int>(1000 * m + 10 * p + i);
      }
    }
  }
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    const int m = evens.index_of(t.rank());
    if (m >= 0) {
      co_await evens.exchange(t, recv, send[static_cast<std::size_t>(m)].data(),
                              count);
    }
  });
  rt.run_to_completion();
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(recv[m].raw[from * count + i],
                  static_cast<int>(1000 * from + 10 * m + i));
      }
    }
  }
}

TEST(TeamCollectives, NonMemberCallThrows) {
  sim::Engine e;
  Runtime rt(e, cfg(4, 1));
  Team pair(rt, {0, 1});
  bool threw = false;
  bool barrier_threw = false;
  std::vector<sim::Time> passed(2, -1);
  std::vector<GlobalPtr<int>> bufs{rt.heap().alloc<int>(0, 4),
                                   rt.heap().alloc<int>(1, 4)};
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 3) {
      try {
        co_await pair.broadcast(t, bufs, 4, 0);
      } catch (const std::logic_error&) {
        threw = true;
      }
      // A non-member's arrival must not count as a party.
      try {
        co_await pair.barrier(t);
      } catch (const std::logic_error&) {
        barrier_threw = true;
      }
    } else if (pair.contains(t.rank())) {
      co_await pair.broadcast(t, bufs, 4, 0);
      if (t.rank() == 1) co_await t.compute(1e-6);  // the late member
      co_await pair.barrier(t);
      passed[static_cast<std::size_t>(t.rank())] = t.runtime().engine().now();
    }
  });
  rt.run_to_completion();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(barrier_threw);
  EXPECT_EQ(passed[0], passed[1]);
}

TEST(TeamCollectives, IntraNodeTeamCheaperThanGlobal) {
  // The productivity claim of teams: collective cost scales with the
  // team's hardware span, not with THREADS.
  auto timed = [](bool team_scoped) {
    sim::Engine e;
    Runtime rt(e, cfg(16, 4));
    Team node0 = Team::node_team(rt, 0);
    Collectives world_coll(rt);
    const std::size_t count = 16 * 1024;
    std::vector<GlobalPtr<char>> world_bufs, team_bufs;
    for (int r = 0; r < 16; ++r) world_bufs.push_back(rt.heap().alloc<char>(r, count));
    for (int r : node0.members()) team_bufs.push_back(rt.heap().alloc<char>(r, count));
    rt.spmd([&, team_scoped](Thread& t) -> sim::Task<void> {
      if (team_scoped) {
        if (node0.contains(t.rank())) {
          co_await node0.broadcast(t, team_bufs, count, 0);
        }
      } else {
        co_await world_coll.broadcast(t, world_bufs, count, 0);
      }
    });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  EXPECT_LT(timed(true) * 2.0, timed(false));
}

TEST(TeamCollectives, IndexOfMapsMembers) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  Collectives coll(rt, {1, 3, 5});
  EXPECT_EQ(coll.size(), 3);
  EXPECT_EQ(coll.index_of(3), 1);
  EXPECT_EQ(coll.index_of(0), -1);
  EXPECT_THROW(Collectives(rt, {}), std::invalid_argument);
  EXPECT_THROW(Collectives(rt, {1, 1}), std::invalid_argument);
}

}  // namespace
