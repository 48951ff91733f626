#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "core/core.hpp"
#include "gas/gas.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using core::Schedule;
using core::SubContext;
using core::SubModel;
using core::SubPool;
using core::ThreadSafety;
using gas::Config;
using gas::Runtime;
using gas::Thread;

Config one_node_cfg(int threads) {
  Config c;
  c.machine = topo::lehman(1);
  c.threads = threads;
  return c;
}

TEST(SubPool, ParallelForCoversEveryIterationOnce) {
  sim::Engine e;
  Runtime rt(e, one_node_cfg(1));
  std::vector<int> hits(1000, 0);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    SubPool pool(t, 4);
    co_await pool.parallel_for(
        hits.size(), Schedule::static_chunks,
        [&hits](SubContext&, std::size_t lo, std::size_t hi) -> sim::Task<void> {
          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
          co_return;
        });
  });
  rt.run_to_completion();
  for (int h : hits) EXPECT_EQ(h, 1);
}

class ScheduleParam : public ::testing::TestWithParam<Schedule> {};

TEST_P(ScheduleParam, AllSchedulesCoverRange) {
  sim::Engine e;
  Runtime rt(e, one_node_cfg(1));
  std::vector<int> hits(777, 0);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    SubPool pool(t, 8);
    co_await pool.parallel_for(
        hits.size(), GetParam(),
        [&hits](SubContext&, std::size_t lo, std::size_t hi) -> sim::Task<void> {
          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
          co_return;
        });
  });
  rt.run_to_completion();
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 777);
  for (int h : hits) EXPECT_EQ(h, 1);
}

INSTANTIATE_TEST_SUITE_P(All, ScheduleParam,
                         ::testing::Values(Schedule::static_chunks,
                                           Schedule::dynamic));

TEST(SubPool, ParallelSpeedupMatchesWidth) {
  auto timed = [](int width) {
    sim::Engine e;
    Runtime rt(e, one_node_cfg(1));
    rt.spmd([width](Thread& t) -> sim::Task<void> {
      SubPool pool(t, width);
      co_await pool.parallel_for(
          16, Schedule::static_chunks,
          [](SubContext& c, std::size_t lo, std::size_t hi) -> sim::Task<void> {
            co_await c.compute(1e-3 * static_cast<double>(hi - lo));
          });
    });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  const double t1 = timed(1);
  const double t4 = timed(4);
  EXPECT_NEAR(t1 / t4, 4.0, 0.2);  // 4 distinct cores -> ~4x
}

TEST(SubPool, SmtSubsGainOnlySmtThroughput) {
  // 8 subs on 4 cores (SMT pairs): total throughput = 4 * 1.22.
  auto timed = [](int width) {
    sim::Engine e;
    Runtime rt(e, one_node_cfg(1));
    rt.spmd([width](Thread& t) -> sim::Task<void> {
      SubPool pool(t, width);
      co_await pool.parallel_for(
          static_cast<std::size_t>(width), Schedule::static_chunks,
          [](SubContext& c, std::size_t lo, std::size_t hi) -> sim::Task<void> {
            co_await c.compute(1e-3 * static_cast<double>(hi - lo));
          });
    });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  const double t4 = timed(4);
  const double t8 = timed(8);
  // 8 units of work over 4*1.22 effective cores vs 4 units over 4 cores.
  EXPECT_NEAR(t8 / t4, 2.0 / 1.22, 0.05);
}

TEST(SubPool, SubsStayOnMastersSocket) {
  sim::Engine e;
  Runtime rt(e, one_node_cfg(2));  // rank 0 -> socket 0, rank 1 -> socket 1
  rt.spmd([](Thread& t) -> sim::Task<void> {
    SubPool pool(t, 8);
    for (int i = 0; i < pool.width(); ++i) {
      EXPECT_EQ(pool.context(i).loc().socket, t.loc().socket);
      EXPECT_EQ(pool.context(i).loc().node, t.loc().node);
    }
    co_return;
  });
  rt.run_to_completion();
}

TEST(SubPool, CilkModelAddsStartupLagAndInflation) {
  auto timed = [](SubModel model) {
    sim::Engine e;
    Runtime rt(e, one_node_cfg(1));
    rt.spmd([model](Thread& t) -> sim::Task<void> {
      SubPool pool(t, 4, model);
      co_await pool.parallel_for(
          4, Schedule::static_chunks,
          [](SubContext& c, std::size_t lo, std::size_t hi) -> sim::Task<void> {
            co_await c.compute(1e-2 * static_cast<double>(hi - lo));
          });
    });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  const double omp = timed(SubModel::openmp);
  const double pool = timed(SubModel::thread_pool);
  const double cilk = timed(SubModel::cilk);
  EXPECT_LT(omp, pool);
  EXPECT_LT(pool, cilk);
  EXPECT_GT(cilk - omp, 0.2);  // the constant Cilk++ lag
}

TEST(SubPool, GasFromSubThreadsRespectsSafetyLevels) {
  auto attempt = [](ThreadSafety safety) {
    sim::Engine e;
    Runtime rt(e, one_node_cfg(2));
    auto dst = rt.heap().alloc<int>(1, 16);
    bool threw = false;
    rt.spmd([&, safety](Thread& t) -> sim::Task<void> {
      if (t.rank() != 0) co_return;
      SubPool pool(t, 2, SubModel::openmp, safety);
      static std::vector<int> src(16, 5);
      try {
        co_await pool.parallel_for(
            2, Schedule::static_chunks,
            [&dst](SubContext& c, std::size_t, std::size_t) -> sim::Task<void> {
              co_await c.copy(dst, src.data(), src.size());
            });
      } catch (const core::ThreadSafetyViolation&) {
        threw = true;
      }
    });
    rt.run_to_completion();
    return threw;
  };
  EXPECT_TRUE(attempt(ThreadSafety::single));
  EXPECT_TRUE(attempt(ThreadSafety::funneled));  // context 1 is not master
  EXPECT_FALSE(attempt(ThreadSafety::serialized));
  EXPECT_FALSE(attempt(ThreadSafety::multiple));
}

TEST(SubPool, SerializedGasCallsDoNotOverlap) {
  auto timed = [](ThreadSafety safety) {
    sim::Engine e;
    Config c;
    c.machine = topo::lehman(2);
    c.threads = 2;  // rank 0 node 0, rank 1 node 1
    Runtime rt(e, c);
    auto dst = rt.heap().alloc<char>(1, 1 << 20);
    static std::vector<char> src(1 << 20, 'z');
    rt.spmd([&, safety](Thread& t) -> sim::Task<void> {
      if (t.rank() != 0) co_return;
      SubPool pool(t, 4, SubModel::openmp, safety);
      co_await pool.parallel_for(
          4, Schedule::static_chunks,
          [&dst](SubContext& c2, std::size_t, std::size_t) -> sim::Task<void> {
            co_await c2.copy(dst, src.data(), src.size());
          });
    });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  // Serialized holds the gate across the whole put; multiple overlaps on
  // the wire (NIC fluid sharing) and finishes sooner.
  EXPECT_GT(timed(ThreadSafety::serialized), timed(ThreadSafety::multiple));
}

TEST(SubPool, DestructorReleasesSlots) {
  sim::Engine e;
  Runtime rt(e, one_node_cfg(1));
  rt.spmd([](Thread& t) -> sim::Task<void> {
    auto& slots = t.runtime().slots();
    const int before = slots.contexts_on_socket(0, t.loc().socket);
    {
      SubPool pool(t, 6);
      EXPECT_EQ(slots.contexts_on_socket(0, t.loc().socket), before + 5);
    }
    EXPECT_EQ(slots.contexts_on_socket(0, t.loc().socket), before);
    co_return;
  });
  rt.run_to_completion();
}

TEST(SubPool, ZeroIterationForIsANoOpRegion) {
  sim::Engine e;
  Runtime rt(e, one_node_cfg(1));
  rt.spmd([](Thread& t) -> sim::Task<void> {
    SubPool pool(t, 4);
    co_await pool.parallel_for(
        0, Schedule::dynamic,
        [](SubContext&, std::size_t, std::size_t) -> sim::Task<void> {
          ADD_FAILURE() << "body must not run";
          co_return;
        });
  });
  rt.run_to_completion();
}

}  // namespace
