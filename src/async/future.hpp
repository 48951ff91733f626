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
//   join j; j.add(f)...; j.seal()
//                        — the same wait over a stream of void futures,
//                          counted as they are issued and not kept;
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
// Shared states cost no malloc on the hot path: a state is an intrusively
// ref-counted node from the coroutine frame pool (sim/task.hpp), every
// callback is one word (a waiting frame, a pooled sim::CallNode holding a
// then/finally/forward_into continuation, or a when_all or join node)
// and the first is stored inline, and when_all and join count arrivals
// instead of scheduling one event per input (DESIGN.md §13). The count is
// a plain integer: a simulation runs on one thread.
//
// This header is deliberately header-only and depends only on sim/engine
// and sim/task: every layer from sim upward includes it without linking
// the (gas-dependent) hupc_async RPC library.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
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

/// Owning handle to an intrusively counted node (a shared state): a copy
/// bumps the node's plain `refs` counter and the last release deletes the
/// node.
template <class S>
class Ref {
 public:
  Ref() noexcept = default;
  /// Adopt a new node, whose count starts at 1.
  explicit Ref(S* node) noexcept : node_(node) {}
  Ref(const Ref& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) ++node_->refs;
  }
  Ref(Ref&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  Ref& operator=(Ref other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~Ref() {
    if (node_ != nullptr && --node_->refs == 0) delete node_;
  }

  S* operator->() const noexcept { return node_; }
  S& operator*() const noexcept { return *node_; }
  explicit operator bool() const noexcept { return node_ != nullptr; }

 private:
  S* node_ = nullptr;
};

/// A when_all or join node, attached to each of its inputs as a one-word
/// callback. It settles exactly where a gather with one same-instant
/// arrival event per engine-backed input (and an inline arrival per
/// engine-less one) would: those events run in scheduling order, so the
/// last of them is the one scheduled at the last engine-backed arrival.
/// The node only counts, schedules that one event, and settles in it or
/// in the last inline arrival, whichever runs later; the events it leaves
/// out would only have counted, so no other event moves relative to
/// another (DESIGN.md §13). Once settled, the node deletes itself.
class GatherBase : public sim::detail::PooledFrame, private sim::EventNode {
 public:
  GatherBase() noexcept : sim::EventNode{&settle_event} {}
  GatherBase(const GatherBase&) = delete;
  GatherBase& operator=(const GatherBase&) = delete;
  virtual ~GatherBase() = default;

  /// Count one input before attaching to it. Nothing may settle before
  /// the last input is counted: when_all counts every input before it
  /// attaches any, and a join holds one extra count until its seal.
  void expect(bool engine_backed) noexcept {
    ++(engine_backed ? engine_left_ : inline_left_);
  }

  /// One input resolved (or was ready when attached). `engine` is that
  /// input's engine, null for an engine-less input; `error` is its
  /// exception, if it failed.
  void arrive(sim::Engine* engine, const std::exception_ptr& error) {
    if (error) note_exception(error);
    if (engine == nullptr) {
      if (--inline_left_ == 0 && engine_left_ == 0 && !event_pending_) {
        settle();
      }
      return;
    }
    if (--engine_left_ > 0) return;
    event_pending_ = true;
    engine->schedule_node(engine->now(), this);
  }

 protected:
  /// Drop a count taken by expect(true) that no input arrives for. With an
  /// engine it lands as an engine-backed arrival would; without one it
  /// settles inline if it was the last count, and otherwise leaves the
  /// settle to the inputs still pending.
  void release(sim::Engine* engine) {
    if (engine != nullptr) {
      arrive(engine, std::exception_ptr{});
    } else if (--engine_left_ == 0 && inline_left_ == 0 && !event_pending_) {
      settle();
    }
  }

  /// An input failed; called at its arrival, in arrival order.
  virtual void note_exception(const std::exception_ptr& /*error*/) {}

  /// Resolve the result from the (all resolved) inputs, then delete this.
  virtual void settle() = 0;

 private:
  /// The one settle event, scheduled by the last engine-backed arrival.
  static void settle_event(sim::EventNode* self, std::uint64_t /*seq*/) {
    auto* gather = static_cast<GatherBase*>(self);
    gather->event_pending_ = false;
    if (gather->inline_left_ == 0) gather->settle();
  }

  std::size_t engine_left_ = 0;
  std::size_t inline_left_ = 0;
  bool event_pending_ = false;
};

/// A callback is one word: a suspended coroutine's frame address (a
/// future::wait() waiter), a then/finally/forward_into continuation's
/// sim::CallNode address tagged kCallTag, or a GatherBase address tagged
/// kGatherTag. Frames and nodes come from the frame pool or operator new,
/// so they are at least 16-aligned and the two low bits are free.
inline constexpr std::uintptr_t kCallTag = 1;
inline constexpr std::uintptr_t kGatherTag = 2;
inline constexpr std::uintptr_t kTagMask = 3;

/// The value-independent part of a shared state. It lives in the frame
/// pool (PooledFrame) and dies with its last Ref. The first callback is
/// stored inline; later ones queue in `overflow_` in attach order, so most
/// states (one waiter, one continuation or one when_all) never allocate.
class StateBase : public sim::detail::PooledFrame {
 public:
  std::uint32_t refs = 1;
  bool ready = false;
  sim::Engine* engine = nullptr;  // null => inline callback execution
  std::exception_ptr exception{};

  StateBase() noexcept { ++live_state_count(); }
  StateBase(const StateBase&) = delete;
  StateBase& operator=(const StateBase&) = delete;
  ~StateBase() { --live_state_count(); }

  /// Attach a callback: queued while pending, dispatched once ready. Late
  /// attachments still honour FIFO: with an engine they land behind the
  /// callbacks the fulfilment already scheduled at the same instant.
  void attach(std::coroutine_handle<> waiter) { enqueue(waiter.address(), 0); }
  void attach(GatherBase* gather) { enqueue(gather, kGatherTag); }
  /// Attach `fn` as a pooled sim::CallNode: with an engine it runs as a
  /// same-instant event, without one it runs inline.
  template <class F>
  void attach_call(F fn) {
    sim::EventNode* node = new sim::CallNode<F>(std::move(fn));
    enqueue(node, kCallTag);
  }

  /// Flip to ready and dispatch every queued callback in attach order.
  /// The queue is emptied before anything runs, so no callback can fire
  /// twice, and an inline callback may drop the last Ref to this state.
  void resolve() {
    assert(!ready && "async::promise: double fulfilment");
    ready = true;
    sim::Engine* const eng = engine;
    const std::exception_ptr error = exception;
    const std::uintptr_t first = std::exchange(first_, 0);
    std::vector<std::uintptr_t> rest = std::move(overflow_);
    if (first != 0) dispatch(eng, first, error);
    for (const std::uintptr_t word : rest) dispatch(eng, word, error);
  }

 private:
  void enqueue(const void* address, std::uintptr_t tag) {
    auto word = reinterpret_cast<std::uintptr_t>(address);
    assert((word & kTagMask) == 0 && "callback address must be 4-aligned");
    word |= tag;
    if (ready) {
      dispatch(engine, word, exception);
    } else if (first_ == 0 && overflow_.empty()) {
      first_ = word;
    } else {
      overflow_.push_back(word);
    }
  }

  /// Run one callback per the completion-ordering rule. Static: the
  /// callback may free the state it came from, so the state's engine and
  /// exception come in as arguments.
  static void dispatch(sim::Engine* engine, std::uintptr_t word,
                       const std::exception_ptr& error) {
    void* const address = reinterpret_cast<void*>(word & ~kTagMask);
    if ((word & kGatherTag) != 0) {
      static_cast<GatherBase*>(address)->arrive(engine, error);
    } else if ((word & kCallTag) != 0) {
      auto* node = static_cast<sim::EventNode*>(address);
      if (engine != nullptr) {
        engine->schedule_node(engine->now(), node);
      } else {
        node->fire(node, 0);
      }
    } else if (engine != nullptr) {
      engine->schedule_in(0, std::coroutine_handle<>::from_address(address));
    } else {
      std::coroutine_handle<>::from_address(address).resume();
    }
  }

  std::uintptr_t first_ = 0;
  std::vector<std::uintptr_t> overflow_;
};

template <class T>
struct StateValue {
  std::optional<T> value;
};
template <>
struct StateValue<void> {};

template <class T>
struct State final : StateBase, StateValue<T> {};

/// when_all's and join's access to an input's shared state.
struct Access {
  template <class T>
  static StateBase& state(const future<T>& f) {
    return *f.state_;
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

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(state_);
  }
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
    state_->attach_call(
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
  /// engine event at resolution, in FIFO order; the first waiter of a state
  /// is queued without allocating.
  [[nodiscard]] auto wait() const {
    struct Awaiter {
      detail::Ref<detail::State<T>> state;
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
    state_->attach_call(std::move(f));
  }

  /// Forward this future's eventual resolution into `p` (chain collapse
  /// for future-returning then() continuations).
  void forward_into(promise<T> p) const {
    assert(valid());
    state_->attach_call([state = state_, p = std::move(p)]() mutable {
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
  friend struct detail::Access;
  explicit future(detail::Ref<detail::State<T>> s) : state_(std::move(s)) {}
  detail::Ref<detail::State<T>> state_;
};

template <class T = void>
class promise {
 public:
  /// Engine-less promise: callbacks run inline (tests, ready futures).
  promise() : state_(new detail::State<T>()) {}
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
  detail::Ref<detail::State<T>> state_;
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

/// The when_all node for inputs of type T. The LOWEST-INDEX exception
/// wins, making the outcome invariant under completion-order shuffles.
template <class T, class Result>
class Gather final : public GatherBase {
 public:
  explicit Gather(std::vector<future<T>> in) : inputs(std::move(in)) {}

  promise<Result> result;  // engine-less: its waiters resume in settle()
  std::vector<future<T>> inputs;

 private:
  void settle() override {
    resolve_result();
    delete this;
  }

  void resolve_result() {
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

template <class T, class Result>
[[nodiscard]] future<Result> gather(std::vector<future<T>> inputs) {
  if (inputs.empty()) {
    promise<Result> ready;
    if constexpr (std::is_void_v<Result>) {
      ready.set_value();
    } else {
      ready.set_value(Result{});
    }
    return ready.get_future();
  }
  auto* g = new Gather<T, Result>(std::move(inputs));
  future<Result> out = g->result.get_future();
  for (const auto& f : g->inputs) {
    g->expect(Access::state(f).engine != nullptr);
  }
  // Attach in input order. Only the last attachment can settle, and so
  // free, g: nothing below reads g after it.
  const std::size_t n = g->inputs.size();
  future<T>* in = g->inputs.data();
  for (std::size_t i = 0; i < n; ++i) {
    Access::state(in[i]).attach(static_cast<GatherBase*>(g));
  }
  return out;
}

/// The node behind async::join. It holds one engine-backed count from
/// construction until join::seal() releases it, so no arrival before the
/// seal can settle it; the FIRST exception in arrival order wins.
class JoinNode final : public GatherBase {
 public:
  JoinNode() { expect(true); }

  promise<> result;  // engine-less: its waiters resume in settle()
  sim::Engine* engine = nullptr;  // the engine-backed inputs' engine

  /// Count `input`, then attach to it (a ready input arrives at once).
  void add(StateBase& input) {
    if (input.engine != nullptr) engine = input.engine;
    expect(input.engine != nullptr);
    input.attach(static_cast<GatherBase*>(this));
  }

  using GatherBase::release;

 private:
  void note_exception(const std::exception_ptr& error) override {
    if (!error_) error_ = error;
  }

  void settle() override {
    if (error_) {
      result.set_exception(error_);
    } else {
      result.set_value();
    }
    delete this;
  }

  std::exception_ptr error_;
};

}  // namespace detail

/// Resolve after every input future, collecting values in INPUT order (so
/// the result is invariant under completion-order shuffles — the property
/// async_future_test sweeps). Exceptions: the LOWEST-INDEX exceptional
/// input wins, again independent of completion order. An empty vector
/// yields an immediately-ready result. However many inputs are pending,
/// the gather costs at most one engine event (DESIGN.md §13).
template <class T>
[[nodiscard]] future<std::vector<T>> when_all(std::vector<future<T>> futures) {
  return detail::gather<T, std::vector<T>>(std::move(futures));
}

/// when_all over void futures: resolves once all inputs resolved; the
/// lowest-index exception (if any) propagates.
[[nodiscard]] inline future<> when_all(std::vector<future<>> futures) {
  return detail::gather<void, void>(std::move(futures));
}

/// A counting join over a stream of void futures: UPC++'s promise used as
/// an operation counter (`operation_cx::as_promise` + `finalize()`). add()
/// each input as it is issued, then seal() once; the sealed future
/// resolves after every added input. add() attaches to its input and keeps
/// nothing, so a resolved input's state is freed at once and the join's
/// memory does not grow with the number of inputs. It resumes its waiters
/// exactly where when_all over the same inputs, called at the seal, would:
/// its one settle event is scheduled at the later of seal() and the last
/// engine-backed arrival (DESIGN.md §13). That holds as long as nothing
/// else attaches to an input still pending at the seal between its add()
/// and the seal, since the join's callback runs ahead of such a callback
/// and when_all's would run behind it. Exceptions: the FIRST
/// exceptional input in ARRIVAL order wins, since no input is kept to
/// rank by index. That is deterministic, because a simulation runs on one
/// thread. A join destroyed unsealed lets its pending inputs drain without
/// resolving anyone.
class join {
 public:
  join() : node_(new detail::JoinNode) {}
  join(const join&) = delete;
  join& operator=(const join&) = delete;
  ~join() {
    if (node_ != nullptr) node_->release(nullptr);
  }

  void add(const future<>& input) {
    assert(node_ != nullptr && "async::join::add after seal");
    node_->add(detail::Access::state(input));
  }

  /// Stop counting and return the future of the whole join. Only the
  /// release below can settle, and so free, the node.
  [[nodiscard]] future<> seal() {
    assert(node_ != nullptr && "async::join sealed twice");
    detail::JoinNode* const node = std::exchange(node_, nullptr);
    future<> all = node->result.get_future();
    node->release(node->engine);
    return all;
  }

 private:
  detail::JoinNode* node_;
};

}  // namespace hupc::async
