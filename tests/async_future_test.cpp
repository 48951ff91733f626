// Property battery for the async completion primitives (ISSUE: completion
// ordering). The invariants hammered here:
//   * then-chains of arbitrary depth deliver every stage exactly once, in
//     chain order;
//   * when_all is invariant under completion-order shuffles — values land
//     in INPUT order and the lowest-index exception wins, whatever order
//     the inputs resolved in;
//   * fulfilling before vs after attaching continuations is observably
//     identical (modulo the engine's same-instant deferral);
//   * no callback ever runs twice;
//   * shared states are counter-balanced: once every future/promise dies,
//     the live-state census returns to its starting value (no leaks, no
//     double frees).
#include "async/future.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace hupc::async {
namespace {

// Deterministic Fisher-Yates (std::shuffle's algorithm is unspecified
// across standard libraries; the repo's RNGs have pinned sequences).
void shuffle(std::vector<int>& v, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

TEST(AsyncFuture, ReadyFutureDeliversInline) {
  auto f = make_ready_future(42);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.get(), 42);
  int seen = 0;
  f.then([&](int v) { seen = v; });  // engine-less: runs inline
  EXPECT_EQ(seen, 42);
}

TEST(AsyncFuture, VoidFutureFulfilBeforeAndAfterAttach) {
  // After-fulfil attach.
  promise<> p1;
  auto f1 = p1.get_future();
  p1.set_value();
  bool ran1 = false;
  f1.then([&] { ran1 = true; });
  EXPECT_TRUE(ran1);
  // Before-fulfil attach.
  promise<> p2;
  auto f2 = p2.get_future();
  bool ran2 = false;
  f2.then([&] { ran2 = true; });
  EXPECT_FALSE(ran2);
  p2.set_value();
  EXPECT_TRUE(ran2);
}

TEST(AsyncFuture, EngineDefersCallbacksToSameInstantEvents) {
  sim::Engine e;
  promise<int> p(e);
  auto f = p.get_future();
  std::vector<int> order;
  f.then([&](int) { order.push_back(1); });
  p.set_value(7);
  // Nothing runs inline from set_value...
  EXPECT_TRUE(order.empty());
  // ...and a continuation attached AFTER fulfilment still queues behind
  // the earlier one (FIFO even across the ready transition).
  f.then([&](int) { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(f.get(), 7);
}

TEST(AsyncFuture, ThenChainDepthNDeliversEveryStageOnce) {
  for (int depth : {1, 2, 17, 64}) {
    sim::Engine e;
    promise<int> p(e);
    std::vector<int> hits(static_cast<std::size_t>(depth), 0);
    future<int> f = p.get_future();
    for (int i = 0; i < depth; ++i) {
      f = f.then([&hits, i](int v) {
        ++hits[static_cast<std::size_t>(i)];
        return v + 1;
      });
    }
    p.set_value(0);
    e.run();
    ASSERT_TRUE(f.ready()) << "depth " << depth;
    EXPECT_EQ(f.get(), depth);
    for (int i = 0; i < depth; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
          << "stage " << i << " of depth " << depth;
    }
  }
}

TEST(AsyncFuture, ThenUnwrapsFutureReturningContinuations) {
  sim::Engine e;
  promise<int> p(e);
  promise<int> inner_p(e);
  auto f = p.get_future().then(
      [&](int v) { return inner_p.get_future().then([v](int w) { return v + w; }); });
  p.set_value(10);
  e.run();
  EXPECT_FALSE(f.ready());  // outer resolved, inner still pending
  inner_p.set_value(32);
  e.run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.get(), 42);
}

TEST(AsyncFuture, ExceptionSkipsContinuationAndPropagates) {
  sim::Engine e;
  promise<int> p(e);
  bool invoked = false;
  auto f = p.get_future().then([&](int v) {
    invoked = true;
    return v;
  });
  p.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  e.run();
  EXPECT_FALSE(invoked);
  ASSERT_TRUE(f.failed());
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(AsyncFuture, WhenAllValuesInInputOrderUnderShuffledCompletion) {
  constexpr int kN = 12;
  std::vector<int> baseline;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Engine e;
    std::vector<promise<int>> promises;
    std::vector<future<int>> futures;
    promises.reserve(kN);
    for (int i = 0; i < kN; ++i) {
      promises.emplace_back(e);
      futures.push_back(promises.back().get_future());
    }
    auto all = when_all(std::move(futures));
    std::vector<int> completion(kN);
    std::iota(completion.begin(), completion.end(), 0);
    shuffle(completion, seed);
    for (int idx : completion) {
      promises[static_cast<std::size_t>(idx)].set_value(idx * 100);
      e.run();  // interleave resolution with engine progress
    }
    ASSERT_TRUE(all.ready()) << "seed " << seed;
    const std::vector<int>& got = all.get();
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], i * 100)
          << "input order must survive completion shuffle (seed " << seed
          << ")";
    }
    if (baseline.empty()) {
      baseline = got;
    } else {
      EXPECT_EQ(got, baseline) << "seed " << seed;
    }
  }
}

TEST(AsyncFuture, WhenAllLowestIndexExceptionWinsRegardlessOfOrder) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::Engine e;
    constexpr int kN = 6;
    std::vector<promise<int>> promises;
    std::vector<future<int>> futures;
    for (int i = 0; i < kN; ++i) {
      promises.emplace_back(e);
      futures.push_back(promises.back().get_future());
    }
    auto all = when_all(std::move(futures));
    std::vector<int> completion(kN);
    std::iota(completion.begin(), completion.end(), 0);
    shuffle(completion, seed);
    for (int idx : completion) {
      if (idx == 2 || idx == 4) {
        promises[static_cast<std::size_t>(idx)].set_exception(
            std::make_exception_ptr(
                std::runtime_error("input " + std::to_string(idx))));
      } else {
        promises[static_cast<std::size_t>(idx)].set_value(idx);
      }
      e.run();
    }
    ASSERT_TRUE(all.ready());
    try {
      (void)all.get();
      FAIL() << "expected exception";
    } catch (const std::runtime_error& ex) {
      EXPECT_STREQ(ex.what(), "input 2") << "lowest index must win";
    }
  }
}

TEST(AsyncFuture, WhenAllVoidAndEmpty) {
  sim::Engine e;
  EXPECT_TRUE(when_all(std::vector<future<>>{}).ready());
  EXPECT_TRUE(when_all(std::vector<future<int>>{}).ready());
  std::vector<promise<>> ps;
  std::vector<future<>> fs;
  for (int i = 0; i < 5; ++i) {
    ps.emplace_back(e);
    fs.push_back(ps.back().get_future());
  }
  auto all = when_all(std::move(fs));
  for (int i = 4; i >= 0; --i) {  // reverse completion order
    EXPECT_FALSE(all.ready());
    ps[static_cast<std::size_t>(i)].set_value();
    e.run();
  }
  EXPECT_TRUE(all.ready());
}

TEST(AsyncFuture, NoCallbackRunsTwiceUnderRepeatedEngineRuns) {
  sim::Engine e;
  promise<int> p(e);
  auto f = p.get_future();
  int count = 0;
  f.then([&](int) { ++count; });
  p.set_value(1);
  e.run();
  e.run();  // idle re-run must not re-fire
  f.then([&](int) { ++count; });
  e.run();
  EXPECT_EQ(count, 2);  // two attachments, one firing each
}

TEST(AsyncFuture, CoAwaitIntegratesWithSimTasks) {
  sim::Engine e;
  promise<int> p(e);
  int got = 0;
  auto proc = sim::spawn(e, [](promise<int>& pr, future<int> f, int& out,
                               sim::Engine& eng) -> sim::Task<void> {
    // Resolve after 1us of virtual time from a sibling process.
    sim::call_at(eng, eng.now() + 1000, [&pr] { pr.set_value(99); });
    out = co_await f;  // operator co_await
    co_return;
  }(p, p.get_future(), got, e));
  e.run();
  EXPECT_TRUE(proc.ready());
  EXPECT_EQ(got, 99);
}

TEST(AsyncFuture, ExceptionRethrowsThroughCoAwaitInSimTask) {
  sim::Engine e;
  promise<> p(e);
  bool caught = false;
  sim::Time caught_at = -1;
  sim::spawn(e, [](future<> f, bool& c, sim::Time& at,
                   sim::Engine& eng) -> sim::Task<void> {
    try {
      co_await f.wait();
    } catch (const std::runtime_error&) {
      c = true;
      at = eng.now();
    }
  }(p.get_future(), caught, caught_at, e));
  sim::call_at(e, e.now() + 42, [&p] {
    p.set_exception(std::make_exception_ptr(std::runtime_error("x")));
  });
  e.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(caught_at, 42);
}

TEST(AsyncFuture, SharedStatesAreCounterBalanced) {
  const std::int64_t before = debug_live_states();
  {
    sim::Engine e;
    promise<int> p(e);
    auto f = p.get_future();
    auto g = f.then([](int v) { return v * 2; })
                 .then([](int v) { return v + 1; });
    std::vector<future<int>> many;
    for (int i = 0; i < 10; ++i) many.push_back(f.then([](int v) { return v; }));
    auto all = when_all(std::move(many));
    p.set_value(3);
    e.run();
    EXPECT_EQ(g.get(), 7);
    EXPECT_GT(debug_live_states(), before);  // states alive while handles live
  }
  EXPECT_EQ(debug_live_states(), before)
      << "every shared state must die with its last handle";
}

}  // namespace
}  // namespace hupc::async
