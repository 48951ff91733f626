// Serial progress contexts ("personas") for the discrete-event engine.
//
// A ProgressQueue is the progress hook the asynchronous completion layer
// (src/async) drives its per-rank RPC execution through: a coroutine that
// does `co_await queue.turn()` suspends, and it resumes as a same-instant
// engine event in strict FIFO *entry* order. FIFO holds even under
// fault-injection schedule jitter — a perturbed drain tick may run late,
// but every tick resumes the queue's front, so entry order is resumption
// order by construction (the engine event only decides WHEN the next front
// runs, never WHICH). The queue is an intrusive list of the awaiters, which
// live in the suspended frames, and it is its own drain event node: one
// event per entry, and nothing allocated.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>

#include "sim/engine.hpp"

namespace hupc::sim {

class ProgressQueue : private EventNode {
 public:
  explicit ProgressQueue(Engine& engine)
      : EventNode{&drain_one}, engine_(&engine) {}

  ProgressQueue(const ProgressQueue&) = delete;
  ProgressQueue& operator=(const ProgressQueue&) = delete;

  /// The awaitable of turn(), living in the waiting frame. Never ready:
  /// the caller's stack unwinds first (flat stacks, deterministic order).
  struct Turn {
    ProgressQueue* queue;
    std::coroutine_handle<> waiter{};
    Turn* next = nullptr;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      waiter = h;
      queue->enter(this);
    }
    void await_resume() const noexcept {}
  };

  /// `co_await queue.turn()` waits for this context's next serial turn.
  [[nodiscard]] Turn turn() noexcept { return Turn{this}; }

 private:
  void enter(Turn* turn) {
    (tail_ != nullptr ? tail_->next : head_) = turn;
    tail_ = turn;
    engine_->schedule_node(engine_->now(), this);
  }

  static void drain_one(EventNode* self, std::uint64_t /*seq*/) {
    auto* queue = static_cast<ProgressQueue*>(self);
    Turn* front = queue->head_;
    assert(front != nullptr && "ProgressQueue: tick without a waiting turn");
    queue->head_ = front->next;
    if (queue->head_ == nullptr) queue->tail_ = nullptr;
    front->waiter.resume();
  }

  Engine* engine_;
  Turn* head_ = nullptr;
  Turn* tail_ = nullptr;
};

}  // namespace hupc::sim
