// Chainable asynchronous completion objects for the simulated runtime
// (DESIGN.md §13) — the UPC++-style `future`/`promise` pair and the only
// completion type in the tree: fluid-link transfers, network and memory
// legs, mpl rendezvous and every GAS non-blocking operation resolve one.
//
// A future composes:
//   fut.then(f)          — attach a continuation; returns a future for f's
//                          result (futures returned by f are unwrapped);
//   when_all(futs)       — one future that resolves after every input, with
//                          values in INPUT order regardless of completion
//                          order (and the lowest-index exception, so the
//                          result is independent of completion order);
//   make_ready_future(v) — an already-resolved future;
//   co_await fut         — suspend a sim::Task until resolution.
//
// Completion-ordering rule (the property the test battery hammers): when a
// shared state carries an engine, EVERY callback fires as a same-instant
// engine event — never inline from set_value() or then(). Continuations of
// one future therefore run in attach (FIFO) order, whether attached before
// or after fulfilment, and resume stacks stay flat. Engine-less states
// (make_ready_future, unit tests without a simulation) run callbacks
// inline at attach/fulfil time instead.
//
// This header is deliberately header-only and depends only on sim/engine
// and sim/task: every layer from sim upward includes it without linking
// the (gas-dependent) hupc_async RPC library.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace hupc::async {

template <class T>
class future;
template <class T>
class promise;

namespace detail {

/// Counter-balanced shared-state census for the leak property tests: every
/// State construction increments, every destruction decrements. A balanced
/// program returns to its starting count once all futures/promises die.
[[nodiscard]] inline std::int64_t& live_state_count() noexcept {
  static std::int64_t count = 0;
  return count;
}

template <class T>
struct StateValue {
  std::optional<T> value;
};
template <>
struct StateValue<void> {};

/// One queued completion callback: a suspended coroutine to resume (a
/// future::wait() waiter — an engine handle event, no std::function) or,
/// when `waiter` is null, a function (then/finally/forward_into).
struct Callback {
  std::coroutine_handle<> waiter{};
  std::function<void()> fn;
};

template <class T>
struct State : StateValue<T> {
  sim::Engine* engine = nullptr;  // null => inline callback execution
  bool ready = false;
  std::exception_ptr exception{};
  std::vector<Callback> callbacks;  // FIFO while pending

  State() { ++live_state_count(); }
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() { --live_state_count(); }

  /// Run `cb` exactly once, per the completion-ordering rule above.
  void dispatch(Callback cb) {
    if (engine != nullptr) {
      if (cb.waiter) {
        engine->schedule_in(0, cb.waiter);
      } else {
        engine->schedule_in(0, std::move(cb.fn));
      }
    } else if (cb.waiter) {
      cb.waiter.resume();
    } else {
      cb.fn();
    }
  }

  /// Attach a continuation: queued while pending, dispatched once ready.
  /// Late attachments still honour FIFO — with an engine they land behind
  /// the callbacks the fulfilment already scheduled at the same instant.
  void attach(std::function<void()> fn) { enqueue({{}, std::move(fn)}); }
  void attach(std::coroutine_handle<> waiter) { enqueue({waiter, {}}); }

  /// Flip to ready and dispatch every queued callback in attach order.
  /// Each callback leaves the queue before it can run, so no callback can
  /// ever fire twice (the property async_future_test asserts).
  void resolve() {
    assert(!ready && "async::promise: double fulfilment");
    ready = true;
    std::vector<Callback> cbs = std::move(callbacks);
    callbacks.clear();
    for (auto& cb : cbs) dispatch(std::move(cb));
  }

 private:
  void enqueue(Callback cb) {
    if (ready) {
      dispatch(std::move(cb));
    } else {
      callbacks.push_back(std::move(cb));
    }
  }
};

template <class T>
struct is_future : std::false_type {};
template <class T>
struct is_future<future<T>> : std::true_type {};

/// Result type of invoking continuation F on a future<T>'s value (lazy
/// two-specialization form: std::conditional_t would instantiate the
/// invalid branch for the other arity).
template <class F, class T>
struct then_result {
  using type = std::invoke_result_t<F, T&>;
};
template <class F>
struct then_result<F, void> {
  using type = std::invoke_result_t<F>;
};
template <class F, class T>
using then_raw_t = typename then_result<F, T>::type;

template <class R>
struct unwrap {
  using type = R;
};
template <class R>
struct unwrap<future<R>> {
  using type = R;
};

}  // namespace detail

/// Number of live shared states (promise/future pairs not yet destroyed).
/// Test hook for the counter-balanced leak check.
[[nodiscard]] inline std::int64_t debug_live_states() noexcept {
  return detail::live_state_count();
}

/// Shared-state future with continuations. Copyable (shared semantics):
/// every copy observes the same resolution, get() may be called repeatedly,
/// and any number of continuations may be attached.
template <class T = void>
class future {
 public:
  using value_type = T;

  future() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const noexcept { return state_ && state_->ready; }
  [[nodiscard]] bool failed() const noexcept {
    return state_ && state_->ready && state_->exception != nullptr;
  }

  /// Value access once ready; rethrows a captured exception.
  template <class U = T>
    requires(!std::is_void_v<U>)
  [[nodiscard]] const U& get() const {
    assert(ready() && "async::future::get before resolution");
    if (state_->exception) std::rethrow_exception(state_->exception);
    return *state_->value;
  }
  template <class U = T>
    requires(std::is_void_v<U>)
  void get() const {
    assert(ready() && "async::future::get before resolution");
    if (state_->exception) std::rethrow_exception(state_->exception);
  }

  /// Attach a continuation; returns the future of its result. `f` takes
  /// the resolved value (nothing for future<>) and may return a plain
  /// value, void, or another future (unwrapped). An exceptional input
  /// future propagates its exception to the result WITHOUT invoking `f`.
  template <class F>
  auto then(F f) const {
    using Raw = detail::then_raw_t<F, T>;
    using R = typename detail::unwrap<Raw>::type;
    assert(valid() && "async::future::then on an invalid future");
    promise<R> next = state_->engine != nullptr ? promise<R>(*state_->engine)
                                                : promise<R>();
    future<R> result = next.get_future();
    state_->attach(
        [state = state_, f = std::move(f), next = std::move(next)]() mutable {
          if (state->exception) {
            next.set_exception(state->exception);
            return;
          }
          try {
            if constexpr (detail::is_future<Raw>::value) {
              // f returned a future: chain the result promise onto it.
              auto inner = [&] {
                if constexpr (std::is_void_v<T>) {
                  return f();
                } else {
                  return f(*state->value);
                }
              }();
              inner.forward_into(std::move(next));
            } else if constexpr (std::is_void_v<Raw>) {
              if constexpr (std::is_void_v<T>) {
                f();
              } else {
                f(*state->value);
              }
              next.set_value();
            } else {
              if constexpr (std::is_void_v<T>) {
                next.set_value(f());
              } else {
                next.set_value(f(*state->value));
              }
            }
          } catch (...) {
            next.set_exception(std::current_exception());
          }
        });
    return result;
  }

  /// Awaitable resolution (the upc_waitsync analogue): suspends the
  /// awaiting coroutine until the future resolves, then yields the value
  /// or rethrows: `co_await fut.wait()`. Each waiter costs one same-instant
  /// engine event at resolution, in FIFO order.
  [[nodiscard]] auto wait() const {
    struct Awaiter {
      std::shared_ptr<detail::State<T>> state;
      bool await_ready() const noexcept { return !state || state->ready; }
      void await_suspend(std::coroutine_handle<> h) {
        state->attach(h);
      }
      T await_resume() const {
        if (state && state->exception) std::rethrow_exception(state->exception);
        if constexpr (!std::is_void_v<T>) {
          return *state->value;
        }
      }
    };
    return Awaiter{state_};
  }

  /// `co_await fut` is shorthand for `co_await fut.wait()`.
  [[nodiscard]] auto operator co_await() const { return wait(); }

  /// Attach a callback invoked once this future resolves, value OR
  /// exception (the combinator primitive: then() skips continuations of
  /// exceptional futures, finally() never does). Returns void — inspect
  /// the future inside the callback.
  template <class F>
  void finally(F f) const {
    assert(valid() && "async::future::finally on an invalid future");
    state_->attach(std::move(f));
  }

  /// Forward this future's eventual resolution into `p` (chain collapse
  /// for future-returning then() continuations).
  void forward_into(promise<T> p) const {
    assert(valid());
    state_->attach([state = state_, p = std::move(p)]() mutable {
      if (state->exception) {
        p.set_exception(state->exception);
      } else if constexpr (std::is_void_v<T>) {
        p.set_value();
      } else {
        p.set_value(*state->value);
      }
    });
  }

 private:
  friend class promise<T>;
  explicit future(std::shared_ptr<detail::State<T>> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::State<T>> state_;
};

template <class T = void>
class promise {
 public:
  /// Engine-less promise: callbacks run inline (tests, ready futures).
  promise() : state_(std::make_shared<detail::State<T>>()) {}
  /// Engine-backed promise: callbacks defer as same-instant events.
  explicit promise(sim::Engine& engine) : promise() {
    state_->engine = &engine;
  }

  [[nodiscard]] future<T> get_future() const { return future<T>(state_); }

  template <class U = T>
    requires(!std::is_void_v<U>)
  void set_value(U value) {
    state_->value = std::move(value);
    state_->resolve();
  }
  template <class U = T>
    requires(std::is_void_v<U>)
  void set_value() {
    state_->resolve();
  }
  void set_exception(std::exception_ptr e) {
    state_->exception = std::move(e);
    state_->resolve();
  }

 private:
  std::shared_ptr<detail::State<T>> state_;
};

/// An already-resolved future (engine-less: continuations run inline).
template <class T>
[[nodiscard]] future<std::decay_t<T>> make_ready_future(T&& value) {
  promise<std::decay_t<T>> p;
  p.set_value(std::forward<T>(value));
  return p.get_future();
}
[[nodiscard]] inline future<> make_ready_future() {
  promise<> p;
  p.set_value();
  return p.get_future();
}

namespace detail {

/// Gather node shared by the when_all overloads: counts arrivals (via
/// finally, so exceptional inputs count too) and settles the result once
/// every input resolved. The LOWEST-INDEX exception wins, making the
/// outcome invariant under completion-order shuffles.
template <class T, class Result>
struct Gather {
  promise<Result> result;
  std::vector<future<T>> inputs;
  std::size_t remaining = 0;

  void arrive() {
    if (--remaining > 0) return;
    for (auto& f : inputs) {
      if (f.failed()) {
        try {
          (void)f.get();
        } catch (...) {
          result.set_exception(std::current_exception());
          return;
        }
      }
    }
    if constexpr (std::is_void_v<T>) {
      result.set_value();
    } else {
      Result values;
      values.reserve(inputs.size());
      for (auto& f : inputs) values.push_back(f.get());
      result.set_value(std::move(values));
    }
  }
};

}  // namespace detail

/// Resolve after every input future, collecting values in INPUT order (so
/// the result is invariant under completion-order shuffles — the property
/// async_future_test sweeps). Exceptions: the LOWEST-INDEX exceptional
/// input wins, again independent of completion order. An empty vector
/// yields an immediately-ready result.
template <class T>
[[nodiscard]] future<std::vector<T>> when_all(std::vector<future<T>> futures) {
  auto g = std::make_shared<detail::Gather<T, std::vector<T>>>();
  g->inputs = std::move(futures);
  g->remaining = g->inputs.size();
  future<std::vector<T>> out = g->result.get_future();
  if (g->inputs.empty()) {
    g->result.set_value({});
    return out;
  }
  for (auto& f : g->inputs) {
    f.finally([g] { g->arrive(); });
  }
  return out;
}

/// when_all over void futures: resolves once all inputs resolved; the
/// lowest-index exception (if any) propagates.
[[nodiscard]] inline future<> when_all(std::vector<future<>> futures) {
  auto g = std::make_shared<detail::Gather<void, void>>();
  g->inputs = std::move(futures);
  g->remaining = g->inputs.size();
  future<> out = g->result.get_future();
  if (g->inputs.empty()) {
    g->result.set_value();
    return out;
  }
  for (auto& f : g->inputs) {
    f.finally([g] { g->arrive(); });
  }
  return out;
}

}  // namespace hupc::async
