// The discrete-event simulation engine.
//
// A single Engine owns a binary heap of timestamped events. Events are
// plain callbacks; coroutine-based logical processes (sim::Task) schedule
// their own resumption through it. The entire simulation runs on one OS
// thread: determinism comes from strict (time, sequence) ordering, and the
// design is data-race-free by construction (C++ Core Guidelines CP.2).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/hooks.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace hupc::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time. Monotonically non-decreasing during run().
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute virtual time `at` (clamped to now()).
  /// Events scheduled for the same instant run in scheduling order.
  void schedule_at(Time at, std::function<void()> fn);

  /// Schedule `fn` to run `delay` from now.
  void schedule_in(Time delay, std::function<void()> fn) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Run until the event queue is empty. Returns the final virtual time.
  Time run();

  /// Run until the event queue is empty or virtual time would exceed
  /// `deadline`; events after the deadline remain queued.
  Time run_until(Time deadline);

  /// Execute a single event. Returns false if the queue was empty.
  bool step();

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

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
  struct Event {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  trace::Tracer* tracer_ = nullptr;
  trace::Counters own_counters_;
  trace::Counters* counters_ = &own_counters_;
  fault::ScheduleHook* fault_ = nullptr;
  /// Binary heap under Later (std::push_heap/pop_heap): the same sequence
  /// std::priority_queue runs, but step() can move the top event out.
  std::vector<Event> queue_;
};

}  // namespace hupc::sim
