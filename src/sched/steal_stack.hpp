// The UTS steal-stack (thesis §3.3.2): a per-thread work deque living in
// that thread's shared space. The owner works depth-first on a private
// portion (lock-free pushes/pops at the top); surplus work is released to a
// lock-protected shared portion, from which thieves steal the oldest items
// (closest to the root — the largest subtrees).
//
// All remote interactions charge realistic costs: the lock is a
// gas::GlobalLock (cheap within the supernode, an RTT across nodes) and the
// stolen payload moves via the runtime copy paths.
#pragma once

#include <deque>
#include <vector>

#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"

namespace hupc::sched {

/// Payload of one stolen item.
inline constexpr double kBytesPerItem = 24.0;

namespace detail {
inline const trace::CounterId kRelease = trace::intern("sched.release");
inline const trace::CounterId kDiffusionSplit =
    trace::intern("sched.diffusion.split");
}  // namespace detail

template <class T>
class StealStack {
 public:
  StealStack(gas::Runtime& rt, int owner, int chunk)
      : rt_(&rt),
        owner_(owner),
        chunk_(chunk),
        lock_(rt, owner),
        // The shared portion's size lives at a real shared address so
        // thief probes have a line to cache (shared_probe_cost with an
        // address); kept in sync host-side on every mutation, free, and
        // 0 at first because fresh shared memory is zero.
        count_(rt.heap().alloc<std::uint64_t>(owner, 1)) {}

  [[nodiscard]] int owner() const noexcept { return owner_; }
  [[nodiscard]] int chunk() const noexcept { return chunk_; }

  // --- owner-side (private portion; no lock) ----------------------------
  void push(T item) { local_.push_back(std::move(item)); }
  [[nodiscard]] bool pop(T& out) {
    if (local_.empty()) return false;
    out = std::move(local_.back());
    local_.pop_back();
    return true;
  }
  [[nodiscard]] std::size_t local_count() const noexcept { return local_.size(); }

  /// Owner moves one chunk from the private to the shared portion when the
  /// private portion holds at least two chunks (keeps one for itself).
  [[nodiscard]] sim::Task<void> maybe_release(gas::Thread& self) {
    if (local_.size() < 2 * static_cast<std::size_t>(chunk_)) co_return;
    rt_->counters().add(detail::kRelease, self.rank());
    co_await lock_.acquire(self);
    for (int i = 0; i < chunk_; ++i) {
      shared_.push_back(std::move(local_.front()));
      local_.pop_front();
    }
    sync_count();
    co_await lock_.release(self);
  }

  /// Owner pulls work back from its own shared portion (cheap local lock).
  [[nodiscard]] sim::Task<bool> reacquire(gas::Thread& self) {
    if (shared_.empty()) co_return false;
    co_await lock_.acquire(self);
    bool got = false;
    const int take = static_cast<int>(
        std::min<std::size_t>(shared_.size(), static_cast<std::size_t>(chunk_)));
    for (int i = 0; i < take; ++i) {
      local_.push_back(std::move(shared_.back()));
      shared_.pop_back();
      got = true;
    }
    sync_count();
    co_await lock_.release(self);
    co_return got;
  }

  // --- thief-side --------------------------------------------------------
  /// Remote metadata probe: how much stealable work is visible? Charges a
  /// fine-grained shared read of the owner's count cell from the thief's
  /// position; inside a read-cache epoch repeated probes of the same
  /// victim hit the cached line (invalidated again by the thief's own
  /// lock acquires and bulk steals).
  [[nodiscard]] sim::Task<std::size_t> probe(gas::Thread& thief) {
    co_await thief.shared_probe_cost(owner_, count_.raw);
    co_return shared_.size();
  }

  /// Steal up to `granularity` items — or half of the shared portion when
  /// `steal_half` (rapid diffusion) and at least two chunks are available.
  /// The payload transfer is charged at kBytesPerItem.
  /// `test_split_off_by_one` plants a deliberate boundary bug in the
  /// diffusion split (the boundary item lands on both sides) — a fuzzer
  /// validation target only, never enable outside tests.
  [[nodiscard]] sim::Task<std::size_t> steal(gas::Thread& thief,
                                             std::vector<T>& out,
                                             int granularity, bool steal_half,
                                             bool test_split_off_by_one = false) {
    co_await lock_.acquire(thief);
    std::size_t take = std::min<std::size_t>(
        shared_.size(), static_cast<std::size_t>(granularity));
    bool diffused = false;
    if (steal_half && shared_.size() >= 2 * static_cast<std::size_t>(chunk_)) {
      take = shared_.size() / 2;
      diffused = true;
      // Rapid diffusion fired: the thief walks away with half the surplus.
      if (trace::Tracer* tr = rt_->tracer()) {
        tr->instant(trace::Category::sched, "diffusion", thief.rank(), take,
                    static_cast<std::uint64_t>(owner_));
      }
      rt_->counters().add(detail::kDiffusionSplit, thief.rank());
    }
    if (take > 0) {
      // One bulk transfer for the stolen items.
      co_await thief.copy_raw(owner_, nullptr, nullptr,
                              static_cast<std::size_t>(
                                  static_cast<double>(take) * kBytesPerItem));
      for (std::size_t i = 0; i < take; ++i) {
        out.push_back(std::move(shared_.front()));
        shared_.pop_front();
      }
      sync_count();
      if (diffused && test_split_off_by_one) {
        // Planted bug: the split boundary is copied instead of moved, so
        // the boundary item is now owned by both sides of the split.
        out.push_back(out.back());
      }
    }
    co_await lock_.release(thief);
    co_return take;
  }

  [[nodiscard]] std::size_t shared_count() const noexcept {
    return shared_.size();
  }

 private:
  void sync_count() noexcept { *count_.raw = shared_.size(); }

  gas::Runtime* rt_;
  int owner_;
  int chunk_;
  gas::GlobalLock lock_;
  gas::GlobalPtr<std::uint64_t> count_;
  std::deque<T> local_;
  std::deque<T> shared_;
};

}  // namespace hupc::sched
