// Spawning logical processes and awaiting virtual-time delays.
//
// spawn() turns a Task<void> into an engine-driven root process: it starts
// at the current virtual time, runs to completion, and self-destroys. The
// returned Process handle supports joining both from other coroutines
// (co_await p.join(e)) and from host code (drive the engine, then rethrow()).
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "async/future.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
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

/// A process's completion status, shared by its root frame and every
/// Process handle. Like a future's state it comes from the frame pool and
/// carries a plain (non-atomic) count held by async::detail::Ref, so a
/// spawn allocates nothing in steady state.
struct ProcState : PooledFrame {
  std::uint32_t refs = 1;
  bool done = false;
  std::exception_ptr exception{};
  std::vector<std::coroutine_handle<>> joiners;
};

/// Root coroutine type: auto-destroyed at completion (final_suspend never
/// suspends); completion status lives in the shared ProcState, never in the
/// frame. The engine must be run to completion before destruction, otherwise
/// in-flight frames are unreachable.
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

using ProcRef = async::detail::Ref<ProcState>;

inline RootTask run_root(Engine& engine, ProcRef state, Task<void> body) {
  try {
    co_await std::move(body);
  } catch (...) {
    state->exception = std::current_exception();
  }
  state->done = true;
  // Wake joiners as same-instant events: keeps the resume stack flat and the
  // ordering deterministic.
  for (auto h : state->joiners) engine.schedule_in(0, h);
  state->joiners.clear();
}

}  // namespace detail

/// Handle to a spawned logical process.
class Process {
 public:
  Process() = default;

  [[nodiscard]] bool done() const noexcept { return state_ && state_->done; }
  [[nodiscard]] bool failed() const noexcept {
    return state_ && state_->exception != nullptr;
  }

  /// Rethrow the process's exception, if any. Host-side use after run().
  void rethrow() const {
    if (state_ && state_->exception) std::rethrow_exception(state_->exception);
  }

  /// Awaitable join for use inside other coroutines. Propagates exceptions.
  [[nodiscard]] auto join() {
    struct Awaiter {
      detail::ProcRef state;
      bool await_ready() const noexcept { return !state || state->done; }
      void await_suspend(std::coroutine_handle<> h) const {
        state->joiners.push_back(h);
      }
      void await_resume() const {
        if (state && state->exception) std::rethrow_exception(state->exception);
      }
    };
    return Awaiter{state_};
  }

 private:
  friend Process spawn(Engine&, Task<void>);
  explicit Process(detail::ProcRef s) : state_(std::move(s)) {}
  detail::ProcRef state_;
};

/// Start `body` as a root process at the current virtual time.
inline Process spawn(Engine& engine, Task<void> body) {
  detail::ProcRef state(new detail::ProcState);
  detail::RootTask root = detail::run_root(engine, state, std::move(body));
  // run_root is suspended at initial_suspend; kick it off as an engine event
  // so processes begin in spawn order once the engine runs.
  engine.schedule_in(0, root.handle);
  return Process(state);
}

namespace detail {
inline Task<void> complete_into(Task<void> body, async::promise<> promise) {
  try {
    co_await std::move(body);
    promise.set_value();
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
}
}  // namespace detail

/// Start `body` as a root process and return a future that resolves (or
/// carries the exception) when it completes. This is the bridge from
/// Task-returning APIs to fire-and-forget-then-waitsync usage patterns
/// (upc_memput_async / upc_waitsync analogues in the GAS layer).
inline async::future<> start(Engine& engine, Task<void> body) {
  async::promise<> promise(engine);
  async::future<> future = promise.get_future();
  spawn(engine, detail::complete_into(std::move(body), std::move(promise)));
  return future;
}

}  // namespace hupc::sim
