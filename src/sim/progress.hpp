// Serial progress contexts ("personas") for the discrete-event engine.
//
// A ProgressQueue is the progress hook the asynchronous completion layer
// (src/async) drives its per-rank RPC execution through: thunks posted
// from anywhere in the simulation run as same-instant engine events in
// strict FIFO *post* order. FIFO holds even under fault-injection schedule
// jitter — a perturbed drain tick may run late, but every tick pops the
// queue's front, so post order is execution order by construction (the
// engine event only decides WHEN the next front runs, never WHICH). The
// queue is its own drain event node: one event per posted thunk.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/engine.hpp"

namespace hupc::sim {

class ProgressQueue : private EventNode {
 public:
  explicit ProgressQueue(Engine& engine)
      : EventNode{&drain_one}, engine_(&engine) {}

  ProgressQueue(const ProgressQueue&) = delete;
  ProgressQueue& operator=(const ProgressQueue&) = delete;

  /// Enqueue `fn` for serial execution on this context. Never runs inline:
  /// the caller's stack unwinds first (flat stacks, deterministic order).
  void post(std::function<void()> fn) {
    queue_.push_back(std::move(fn));
    engine_->schedule_node(engine_->now(), this);
  }

 private:
  static void drain_one(EventNode* self, std::uint64_t /*seq*/) {
    auto& queue = static_cast<ProgressQueue*>(self)->queue_;
    assert(!queue.empty() && "ProgressQueue: tick without a queued thunk");
    std::function<void()> fn = std::move(queue.front());
    queue.pop_front();
    fn();
  }

  Engine* engine_;
  std::deque<std::function<void()>> queue_;
};

}  // namespace hupc::sim
