// Contention-modeling resources.
//
// FifoServer — a serially-reusable resource (e.g. one network connection's
// injection path, a lock-protected steal-stack): requests are serviced one
// at a time in FIFO order, each holding the server for a caller-specified
// virtual duration.
//
// FluidLink — a processor-sharing bandwidth resource (e.g. a NIC, a socket's
// memory controller): concurrent transfers progress simultaneously at
// water-filling fair-share rates, optionally capped per transfer (models a
// per-connection bandwidth limit below the aggregate link capacity). Rates
// are recomputed exactly on every arrival and departure, so the model is a
// piecewise-linear fluid approximation with no time-stepping error.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "async/future.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace hupc::sim {

class FifoServer {
 public:
  explicit FifoServer(Engine& engine) : engine_(&engine), mutex_(engine) {}

  /// Occupy the server for `service` virtual time, after waiting in FIFO
  /// order behind earlier requests.
  Task<void> serve(Time service) {
    co_await mutex_.lock();
    ScopedLock guard(mutex_);
    busy_ += service;
    ++served_;
    co_await delay(*engine_, service);
  }

  /// Total busy time and request count (utilization diagnostics).
  [[nodiscard]] Time busy_time() const noexcept { return busy_; }
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }

 private:
  Engine* engine_;
  Mutex mutex_;
  Time busy_ = 0;
  std::uint64_t served_ = 0;
};

/// Processor-sharing link with capacity in bytes/second.
class FluidLink {
 public:
  FluidLink(Engine& engine, double capacity_bytes_per_sec);
  FluidLink(const FluidLink&) = delete;
  FluidLink& operator=(const FluidLink&) = delete;

  /// Move `bytes` through the link; completes when the transfer's share of
  /// the capacity has carried all bytes. `max_rate` (bytes/sec) caps this
  /// transfer's share; <=0 means uncapped.
  [[nodiscard]] Task<void> transfer(double bytes, double max_rate = 0.0);

  /// Start a transfer immediately and return a future that resolves on
  /// completion — lets a caller drive several links in parallel and await
  /// the slowest (e.g. a cross-socket stream occupying memory bus + QPI).
  [[nodiscard]] async::future<> transfer_async(double bytes,
                                               double max_rate = 0.0);

  [[nodiscard]] double capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t active_transfers() const noexcept {
    return transfers_.size();
  }
  [[nodiscard]] double total_bytes() const noexcept { return total_bytes_; }

 private:
  struct Xfer {
    double remaining;
    double cap;   // per-transfer rate cap (or huge)
    double rate;  // current assigned rate
    async::promise<> done;
  };

  void advance_progress();
  void assign_rates();
  void schedule_next_completion();
  void on_completion_event(std::uint64_t generation);

  Engine* engine_;
  double capacity_;
  double total_bytes_ = 0.0;
  Time last_update_ = 0;
  std::uint64_t generation_ = 0;  // invalidates stale completion events
  std::vector<Xfer> transfers_;    // in start order
  std::vector<Xfer*> pool_;        // assign_rates' scratch, kept to reuse
};

}  // namespace hupc::sim
