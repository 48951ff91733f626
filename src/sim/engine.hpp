// The discrete-event simulation engine.
//
// A single Engine owns the timestamped events of one simulation; the whole
// simulation runs on one OS thread, so determinism comes from strict
// (time, sequence) ordering and the design is data-race-free by
// construction (C++ Core Guidelines CP.2).
//
// An event is 24 trivially copyable bytes: its time, its sequence number
// and one word saying what to run. There are two kinds. Most events resume
// a coroutine (sim::Task wakeups: delays, joins, semaphore and barrier
// releases, future waits), and the word is the coroutine frame's address.
// Every other event is an intrusive EventNode, and the word is the node's
// address tagged with bit 0: FluidLink completions, ProgressQueue drains
// and when_all settles are nodes themselves, and any other callable (a
// future's then/finally/forward_into continuation) is a pooled CallNode
// that frees itself before it calls it. There is no third kind.
// An event due within kWheel ns of now() goes to a timing wheel of one-ns
// slots, each a FIFO in seq order; only events further ahead go to a 4-ary
// heap with hole-based sifts. step() runs whichever of the wheel's first
// event and the heap's top has the smaller (time, sequence), so neither
// the wheel nor the heap's arity changes the order, only the cost
// (DESIGN.md §17).
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/hooks.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace hupc::sim {

/// An event that is not a coroutine resumption. An object embeds the node
/// and queues it with Engine::schedule_node; dispatch calls `fire(node,
/// seq)` with the seq that schedule_node returned, so a node queued several
/// times at once can tell its events apart (FluidLink ignores all but its
/// latest). The node must outlive every event it has queued.
struct EventNode {
  void (*fire)(EventNode* self, std::uint64_t seq);
};

class Engine {
 public:
  /// The timing wheel's span in ns: an event whose final time is before
  /// now() + kWheel when it is scheduled goes to the wheel, any later one
  /// to the heap.
  static constexpr Time kWheel = 4096;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time. Monotonically non-decreasing during run().
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule resumption of the suspended coroutine `h` at absolute
  /// virtual time `at` (clamped to now()). Events scheduled for the same
  /// instant run in scheduling order, whatever their kind.
  void schedule_at(Time at, std::coroutine_handle<> h);

  /// Resume `h` `delay` from now.
  void schedule_in(Time delay, std::coroutine_handle<> h) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), h);
  }

  /// Schedule `node` to fire at `at` (clamped to now()); ordered exactly
  /// like a resumption scheduled at that point. Returns the event's seq,
  /// the one `node->fire` will be called with.
  std::uint64_t schedule_node(Time at, EventNode* node);

  /// Run until the event queue is empty. Returns the final virtual time.
  Time run();

  /// Run until the event queue is empty or virtual time would exceed
  /// `deadline`; events after the deadline remain queued.
  Time run_until(Time deadline);

  /// Execute a single event. Returns false if the queue was empty.
  bool step();

  [[nodiscard]] bool empty() const noexcept {
    return wheel_size_ == 0 && heap_.empty();
  }
  /// Events scheduled and not yet run (wheel and heap).
  [[nodiscard]] std::size_t pending() const noexcept {
    return wheel_size_ + heap_.size();
  }

  /// Total events executed so far (useful for tests and perf counters).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Attach a tracer (non-owning, may be null): every dispatched event is
  /// recorded as an engine-category instant, and from now on the engine
  /// counts into the tracer's registry instead of its own (null switches
  /// back). Recording never charges virtual time, so attaching a tracer
  /// cannot change a simulation.
  void set_tracer(trace::Tracer* tracer) noexcept {
    tracer_ = tracer;
    counters_ = tracer != nullptr ? &tracer->counters() : &own_counters_;
  }
  [[nodiscard]] trace::Tracer* tracer() const noexcept { return tracer_; }

  /// The simulation's counter registry (always on): every layer running on
  /// this engine counts into it. It is the attached tracer's registry when
  /// there is one, else the engine's own.
  [[nodiscard]] trace::Counters& counters() noexcept { return *counters_; }
  [[nodiscard]] const trace::Counters& counters() const noexcept {
    return *counters_;
  }

  /// Attach a fault-injection hook (non-owning, may be null): every
  /// scheduled event's timestamp may be perturbed (delayed) by the hook.
  /// The result is clamped to now(), so monotonicity is preserved. Null —
  /// the default — leaves scheduling untouched.
  void set_fault(fault::ScheduleHook* hook) noexcept { fault_ = hook; }
  [[nodiscard]] fault::ScheduleHook* fault() const noexcept { return fault_; }

 private:
  /// `what` is a coroutine frame address or an EventNode address with
  /// bit 0 set (both are at least 2-aligned, so bit 0 is free).
  struct Event {
    Time at;
    std::uint64_t seq;
    std::uintptr_t what;
  };
  /// The strict (at, seq) order every event runs in. `at` is never
  /// negative, so (at, seq) compares as one unsigned 128-bit key: a
  /// subtract with borrow, and no branch to mispredict on equal times.
  static bool before(const Event& a, const Event& b) noexcept {
    __extension__ using Key = unsigned __int128;
    const auto key = [](const Event& e) {
      return Key{static_cast<std::uint64_t>(e.at)} << 64 | e.seq;
    };
    return key(a) < key(b);
  }

  static constexpr std::size_t kSlots = static_cast<std::size_t>(kWheel);
  static constexpr std::size_t kWords = kSlots / 64;
  // Every wheel event lies in [now(), now() + kWheel), so slot
  // `at % kWheel` holds events of one time only.
  static_assert((kSlots & (kSlots - 1)) == 0 && kSlots >= 64 && kWords <= 64,
                "a power of two, and the occupancy summary is one word");
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// A wheel event; its time is its slot's. `next` links the slot's FIFO,
  /// or the free list once the record is spent.
  struct Record {
    std::uint64_t seq;
    std::uintptr_t what;
    std::uint32_t next;
  };
  struct Slot {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  std::uint64_t push(Time at, std::uintptr_t what);
  Event pop();
  void wheel_push(Time at, std::uint64_t seq, std::uintptr_t what);
  /// The slot of the wheel's earliest event, or kSlots if the wheel is
  /// empty: the first occupied slot at or after now()'s, cyclically.
  [[nodiscard]] std::size_t wheel_first() const noexcept;
  /// The time of the events in occupied slot `slot`.
  [[nodiscard]] Time slot_time(std::size_t slot) const noexcept {
    return now_ + static_cast<Time>((slot - static_cast<std::size_t>(now_)) &
                                    (kSlots - 1));
  }
  void heap_push(const Event& ev);
  Event heap_pop();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  trace::Tracer* tracer_ = nullptr;
  trace::Counters own_counters_;
  trace::Counters* counters_ = &own_counters_;
  fault::ScheduleHook* fault_ = nullptr;
  /// The timing wheel: slots_[s] is the FIFO, in seq order, of the events
  /// at the one time in [now(), now() + kWheel) that is s modulo kWheel.
  /// Bit s of words_ is set iff slot s is occupied, and bit w of summary_
  /// iff words_[w] is non-zero. Records are pooled in records_ and reused
  /// through the free list at free_.
  std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
  std::array<std::uint64_t, kWords> words_{};
  std::uint64_t summary_ = 0;
  std::vector<Record> records_;
  std::uint32_t free_ = kNil;
  std::size_t wheel_size_ = 0;
  /// Events due at now() + kWheel or later, when scheduled: a 4-ary
  /// min-heap under before(); the children of heap_[i] are
  /// heap_[4i+1 .. 4i+4].
  std::vector<Event> heap_;
};

/// A callable as a one-shot event node from the frame pool. Firing moves
/// the callable out and frees the node before calling it: the callable may
/// schedule more events, and its captures die after the call.
template <class F>
struct CallNode final : EventNode, detail::PooledFrame {
  explicit CallNode(F f) : EventNode{&run}, fn(std::move(f)) {}
  CallNode(const CallNode&) = delete;
  CallNode& operator=(const CallNode&) = delete;

  static void run(EventNode* self, std::uint64_t /*seq*/) {
    auto* node = static_cast<CallNode*>(self);
    F f = std::move(node->fn);
    delete node;
    f();
  }

  F fn;
};

/// Run `fn` at `at` (clamped to now()) as a CallNode event.
template <class F>
std::uint64_t call_at(Engine& engine, Time at, F fn) {
  return engine.schedule_node(at, new CallNode<F>(std::move(fn)));
}

}  // namespace hupc::sim
