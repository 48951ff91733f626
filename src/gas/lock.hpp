// upc_lock_t analogue: a global lock with affinity to one rank.
//
// Acquisition cost depends on where the caller sits relative to the lock's
// home: a supernode-local acquire is an atomic op (~lock_local_s); a remote
// acquire costs a small-message network round trip. This asymmetry is what
// makes the UTS local-stealing optimization pay off (thesis §3.3.2).
#pragma once

#include "gas/runtime.hpp"
#include "sim/sim.hpp"

namespace hupc::gas {

namespace detail {
inline const trace::CounterId kLockAcquire = trace::intern("gas.lock.acquire");
inline const trace::CounterId kLockAttempt = trace::intern("gas.lock.attempt");
inline const trace::CounterId kLockRelease = trace::intern("gas.lock.release");
}  // namespace detail

class GlobalLock {
 public:
  GlobalLock(Runtime& rt, int affinity_rank)
      : rt_(&rt), home_(affinity_rank), mutex_(rt.engine()) {}

  [[nodiscard]] int home() const noexcept { return home_; }

  /// upc_lock: pay the access cost, then queue FIFO on the lock. Taking a
  /// lock is a coherence point for the caller's read cache — lock-protected
  /// data another rank just published must be re-fetched, not served from
  /// stale lines.
  [[nodiscard]] sim::Task<void> acquire(Thread& self) {
    const trace::Scope span(rt_->tracer(), trace::Category::gas, "lock",
                            self.rank(), static_cast<std::uint64_t>(home_));
    rt_->counters().add(detail::kLockAcquire, self.rank());
    co_await access_cost(self);
    co_await mutex_.lock();
    self.invalidate_read_cache();
  }

  /// upc_lock_attempt: non-blocking; pays the access cost either way and
  /// fences the read cache only on success.
  [[nodiscard]] sim::Task<bool> try_acquire(Thread& self) {
    rt_->counters().add(detail::kLockAttempt, self.rank());
    co_await access_cost(self);
    const bool got = mutex_.try_lock();
    if (got) self.invalidate_read_cache();
    co_return got;
  }

  /// upc_unlock. The release message to a remote home is fire-and-forget.
  [[nodiscard]] sim::Task<void> release(Thread& self) {
    rt_->counters().add(detail::kLockRelease, self.rank());
    co_await sim::delay(self.runtime().engine(),
                        sim::from_seconds(kLockLocalS));
    mutex_.unlock();
  }

 private:
  [[nodiscard]] sim::DelayAwaiter access_cost(Thread& self) {
    const auto& c = rt_->config().conduit;
    // Supernode-local: an atomic op. Same node, not cross-mapped: the
    // loopback channel. Remote: a request + acknowledgement round trip.
    const double seconds =
        rt_->same_supernode(self.rank(), home_) ? kLockLocalS
        : rt_->node_of(self.rank()) == rt_->node_of(home_)
            ? kLoopbackOverheadS
            : 2.0 * (c.send_overhead_s + c.latency_s + c.recv_overhead_s);
    return sim::delay(rt_->engine(), sim::from_seconds(seconds));
  }

  Runtime* rt_;
  int home_;
  sim::Mutex mutex_;
};

}  // namespace hupc::gas
