// Virtual-time synchronization primitives for simulation coroutines.
//
// All waits are condition-based (C++ Core Guidelines CP.42): a coroutine
// suspends on a primitive and is resumed by the event that satisfies it.
// Wakeups are posted as same-instant engine events, which keeps resume
// stacks flat and ordering deterministic (FIFO per primitive). Completion
// handles for non-blocking operations are async::future (async/future.hpp).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace hupc::sim {

/// One-shot broadcast event. Once triggered, all current and future waiters
/// proceed immediately.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(&engine) {}

  [[nodiscard]] bool triggered() const noexcept { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    for (auto h : waiters_) engine_->schedule_in(0, h);
    waiters_.clear();
  }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.triggered_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* engine_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore in virtual time; FIFO wakeup order.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::int64_t initial)
      : engine_(&engine), count_(initial) {
    assert(initial >= 0);
  }

  [[nodiscard]] std::int64_t available() const noexcept { return count_; }

  [[nodiscard]] auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() {
        if (sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release(std::int64_t n = 1) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (head_ != waiters_.size()) {
        const auto h = waiters_[head_++];
        if (head_ == waiters_.size()) {
          // Drained: rewind and keep the capacity, so a queue that fills
          // and drains again allocates nothing.
          waiters_.clear();
          head_ = 0;
        } else if (head_ >= 64 && 2 * head_ >= waiters_.size()) {
          // A queue that never drains: drop the served prefix (amortised).
          waiters_.erase(waiters_.begin(),
                         waiters_.begin() + static_cast<std::ptrdiff_t>(head_));
          head_ = 0;
        }
        // The permit is handed directly to the waiter; count_ unchanged.
        engine_->schedule_in(0, h);
      } else {
        ++count_;
      }
    }
  }

 private:
  Engine* engine_;
  std::int64_t count_;
  /// FIFO of suspended acquirers; waiters_[head_] is the front.
  std::vector<std::coroutine_handle<>> waiters_;
  std::size_t head_ = 0;
};

/// FIFO mutex. Use ScopedLock for RAII-style sections (CP.20).
class Mutex {
 public:
  explicit Mutex(Engine& engine) : sem_(engine, 1) {}

  [[nodiscard]] auto lock() { return sem_.acquire(); }
  void unlock() { sem_.release(); }

  /// Non-blocking acquisition attempt.
  [[nodiscard]] bool try_lock() {
    if (sem_.available() > 0) {
      // Safe: available()>0 implies acquire() completes synchronously.
      auto aw = sem_.acquire();
      const bool ok = aw.await_ready();
      assert(ok);
      return ok;
    }
    return false;
  }

 private:
  Semaphore sem_;
};

/// RAII unlock guard; pairs with `co_await mutex.lock()`.
class ScopedLock {
 public:
  explicit ScopedLock(Mutex& m) noexcept : mutex_(&m) {}
  ScopedLock(ScopedLock&& o) noexcept : mutex_(std::exchange(o.mutex_, nullptr)) {}
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;
  ScopedLock& operator=(ScopedLock&&) = delete;
  ~ScopedLock() {
    if (mutex_) mutex_->unlock();
  }

 private:
  Mutex* mutex_;
};

/// Reusable cyclic barrier for N participants. Models the UPC barrier
/// semantics including the split-phase notify/wait pair.
class Barrier {
 public:
  Barrier(Engine& engine, int parties)
      : engine_(&engine), parties_(parties), arrived_(0), phase_(0) {
    assert(parties >= 1);
  }

  [[nodiscard]] int parties() const noexcept { return parties_; }
  [[nodiscard]] std::uint64_t phase() const noexcept { return phase_; }

  /// Full barrier: notify + wait.
  [[nodiscard]] auto arrive_and_wait() {
    struct Awaiter {
      Barrier& bar;
      bool await_ready() {
        if (bar.arrived_ + 1 == bar.parties_) {
          bar.complete_phase();
          return true;  // last arriver does not suspend
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++bar.arrived_;
        bar.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Split-phase: notify() records arrival without blocking...
  void notify() {
    ++arrived_;
    if (arrived_ == parties_) complete_phase();
  }

  /// ...and wait(phase) blocks until the phase that `notify` contributed to
  /// has completed. Callers capture `phase()` before notify().
  [[nodiscard]] auto wait_phase(std::uint64_t phase) {
    struct Awaiter {
      Barrier& bar;
      std::uint64_t phase;
      bool await_ready() const noexcept { return bar.phase_ > phase; }
      void await_suspend(std::coroutine_handle<> h) {
        bar.phase_waiters_.emplace_back(phase, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, phase};
  }

 private:
  void complete_phase() {
    arrived_ = 0;
    ++phase_;
    for (auto h : waiters_) engine_->schedule_in(0, h);
    waiters_.clear();
    // Release split-phase waiters whose phase has now completed.
    std::vector<std::pair<std::uint64_t, std::coroutine_handle<>>> keep;
    keep.reserve(phase_waiters_.size());
    for (auto& [ph, h] : phase_waiters_) {
      if (phase_ > ph) {
        engine_->schedule_in(0, h);
      } else {
        keep.emplace_back(ph, h);
      }
    }
    phase_waiters_ = std::move(keep);
  }

  Engine* engine_;
  int parties_;
  int arrived_;
  std::uint64_t phase_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::pair<std::uint64_t, std::coroutine_handle<>>> phase_waiters_;
};

}  // namespace hupc::sim
