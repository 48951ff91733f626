#include <gtest/gtest.h>

#include <coroutine>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace {

using hupc::sim::delay;
using hupc::sim::Engine;
using hupc::sim::Process;
using hupc::sim::spawn;
using hupc::sim::Task;
using hupc::sim::Time;

Task<int> value_task(int v) { co_return v; }

Task<int> adds(Engine& e) {
  const int a = co_await value_task(40);
  co_await delay(e, 5);
  const int b = co_await value_task(2);
  co_return a + b;
}

Task<void> driver(Engine& e, int& out) { out = co_await adds(e); }

TEST(Task, NestedAwaitsPropagateValuesAndTime) {
  Engine e;
  int out = 0;
  Process p = spawn(e, driver(e, out));
  e.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(e.now(), 5);
}

TEST(Task, LazyUntilAwaited) {
  // NB: coroutine lambdas must not capture — the closure object dies before
  // the lazy body runs. State goes in as parameters.
  bool ran = false;
  auto t = [](bool& r) -> Task<void> {
    r = true;
    co_return;
  }(ran);
  EXPECT_FALSE(ran);
  Engine e;
  spawn(e, std::move(t));
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Task, ExceptionsPropagateThroughAwaitChain) {
  Engine e;
  auto thrower = []() -> Task<void> {
    throw std::runtime_error("boom");
    co_return;  // unreachable but required to make this a coroutine
  };
  auto middle = [&]() -> Task<void> { co_await thrower(); };
  Process p = spawn(e, middle());
  e.run();
  EXPECT_TRUE(p.done());
  EXPECT_TRUE(p.failed());
  EXPECT_THROW(p.rethrow(), std::runtime_error);
}

TEST(Process, JoinFromAnotherCoroutine) {
  Engine e;
  std::vector<int> order;
  Process worker = spawn(e, [](Engine& eng, std::vector<int>& ord) -> Task<void> {
    co_await delay(eng, 100);
    ord.push_back(1);
  }(e, order));
  Process watcher =
      spawn(e, [](Process w, std::vector<int>& ord) -> Task<void> {
        co_await w.join();
        ord.push_back(2);
      }(worker, order));
  e.run();
  EXPECT_TRUE(watcher.done());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Process, JoinAfterDoneIsImmediate) {
  Engine e;
  Process quick = spawn(e, []() -> Task<void> { co_return; }());
  e.run();
  ASSERT_TRUE(quick.done());
  bool joined = false;
  spawn(e, [](Process q, bool& j) -> Task<void> {
    co_await q.join();
    j = true;
  }(quick, joined));
  e.run();
  EXPECT_TRUE(joined);
}

TEST(Process, JoinPropagatesChildException) {
  Engine e;
  Process bad = spawn(e, []() -> Task<void> {
    throw std::logic_error("bad");
    co_return;
  }());
  bool caught = false;
  spawn(e, [](Process b, bool& c) -> Task<void> {
    try {
      co_await b.join();
    } catch (const std::logic_error&) {
      c = true;
    }
  }(bad, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Process, ManyProcessesInterleaveDeterministically) {
  // Two runs of the same program must produce identical interleavings.
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      spawn(e, [](Engine& eng, std::vector<int>& ord, int id) -> Task<void> {
        co_await delay(eng, (id * 37) % 5);
        ord.push_back(id);
        co_await delay(eng, (id * 11) % 3);
        ord.push_back(id + 100);
      }(e, order, i));
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Task, MoveSemantics) {
  Task<int> t = value_task(7);
  EXPECT_TRUE(t.valid());
  Task<int> u = std::move(t);
  EXPECT_FALSE(t.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(u.valid());
}

TEST(Task, FreedFramesAreReusedBySameSizeFrames) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "frames bypass the pool under AddressSanitizer";
#else
  void* first = nullptr;
  {
    Task<int> t = value_task(1);
    auto h = t.release();
    first = h.address();
    h.destroy();
  }
  Task<int> again = value_task(2);
  auto h = again.release();
  EXPECT_EQ(h.address(), first);  // LIFO free list of the frame's class
  h.destroy();
#endif
}

// The frame pool stays out of ASan builds, so a freed coroutine frame is
// still reported when resumed or touched.
TEST(TaskDeathTest, DestroyedFrameUseIsReportedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  auto destroyed = [] {
    Task<int> t = value_task(3);
    auto h = t.release();
    h.destroy();
    return std::coroutine_handle<>(h);
  };
  EXPECT_DEATH(destroyed().resume(), "heap-use-after-free");
  EXPECT_DEATH(*static_cast<volatile char*>(destroyed().address()) = 1,
               "heap-use-after-free");
  // A root process frame frees itself when its body ends.
  auto finished_root = [] {
    Engine e;
    auto root = hupc::sim::detail::run_root(
        e, hupc::sim::detail::ProcRef(new hupc::sim::detail::ProcState),
        []() -> Task<void> { co_return; }());
    const std::coroutine_handle<> h = root.handle;
    e.schedule_in(0, h);
    e.run();
    return h;
  };
  EXPECT_DEATH(finished_root().resume(), "heap-use-after-free");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

}  // namespace
