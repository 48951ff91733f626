// Spawning logical processes and awaiting virtual-time delays.
//
// spawn() turns a Task<void> into an engine-driven root process: it starts
// at the current virtual time, runs to completion, and self-destroys. The
// returned async::future<> resolves (or carries the body's exception) when
// the process ends, so it is joined like any other completion: co_await it
// from another coroutine, or drive the engine and inspect it from host code.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "async/future.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace hupc::sim {

/// Awaitable that suspends the current coroutine for `d` virtual time.
/// `co_await delay(engine, 5 * kMicrosecond);`
struct DelayAwaiter {
  Engine& engine;
  Time duration;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.schedule_in(duration, h);
  }
  void await_resume() const noexcept {}
};

[[nodiscard]] inline DelayAwaiter delay(Engine& engine, Time d) {
  return DelayAwaiter{engine, d};
}

namespace detail {

/// Root coroutine type: auto-destroyed at completion (final_suspend never
/// suspends); completion status lives in the process's promise, never in
/// the frame. The engine must be run to completion before destruction,
/// otherwise in-flight frames are unreachable.
struct RootTask {
  struct promise_type : PooledFrame {
    RootTask get_return_object() noexcept {
      return RootTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    // The root body catches everything; reaching here means a logic error.
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

/// Run `body`, then settle `done`. An engine-backed promise wakes its
/// waiters as same-instant events, which keeps the resume stack flat and
/// the ordering deterministic.
inline RootTask run_root(Task<void> body, async::promise<> done) {
  try {
    co_await std::move(body);
  } catch (...) {
    done.set_exception(std::current_exception());
    co_return;
  }
  done.set_value();
}

}  // namespace detail

/// Start `body` as a root process at the current virtual time. The future
/// resolves when the body returns and carries its exception if it throws;
/// discarding it leaves a fire-and-forget process.
inline async::future<> spawn(Engine& engine, Task<void> body) {
  async::promise<> done(engine);
  async::future<> finished = done.get_future();
  detail::RootTask root = detail::run_root(std::move(body), std::move(done));
  // run_root is suspended at initial_suspend; kick it off as an engine event
  // so processes begin in spawn order once the engine runs.
  engine.schedule_in(0, root.handle);
  return finished;
}

}  // namespace hupc::sim
