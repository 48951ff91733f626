// The parallel work-stealing engine driving UTS (thesis §3.3.2).
//
// Every rank runs the Fig 3.2 state machine:
//
//     Working -> (stack empty) -> Local Work Discovery -> Local Work
//     Stealing -> (failed) -> Remote Work Discovery -> Remote Work
//     Stealing -> (failed) -> back off / terminate
//
// Victim policies:
//   random      — the original benchmark: victims drawn uniformly from all
//                 ranks (locality-oblivious);
//   local_first — the thesis optimization: prioritized discovery/stealing
//                 within the thief's shared-memory node team, falling back
//                 to remote victims only when no local work exists.
// Rapid diffusion (steal-half above a threshold) composes with either.
//
// Termination uses an exact outstanding-work counter (single-threaded
// simulator, so it is race-free): items are counted when pushed and
// decremented when fully processed; zero outstanding means the whole tree
// is exhausted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "comm/read_cache.hpp"
#include "fault/hooks.hpp"
#include "gas/gas.hpp"
#include "sched/steal_stack.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace hupc::sched {

/// Compute charged per processed item (~2 Mnodes/s/core).
inline constexpr double kItemCostS = 0.5e-6;

enum class VictimPolicy { random, local_first };

struct StealParams {
  VictimPolicy policy = VictimPolicy::random;
  bool rapid_diffusion = false;
  int granularity = 8;        // items per steal (thesis: 8 on IB, 20 on Eth)
  int chunk = 8;              // release chunk of the steal stacks
  int batch = 64;             // items processed per virtual-time charge
  std::uint64_t seed = 0x5EED;
  /// Serve the discovery sweeps' probe reads through a read-cache epoch
  /// held open for the whole run(): re-probing a victim whose count line
  /// is still cached costs a local access instead of a round trip. The
  /// thief's own lock acquires and bulk steal transfers invalidate its
  /// cache, so every successful steal re-fetches fresh counts.
  bool cache_probes = false;
  comm::CacheParams cache{};
  /// Test-only: plant an off-by-one in the rapid-diffusion split (the
  /// boundary item is duplicated across the split). Exists so fuzz tests
  /// can prove fault::Fuzzer catches real conservation bugs; never enable
  /// outside tests.
  bool test_split_off_by_one = false;
};

/// One rank's work-stealing accounting: a view over its sched.* counters
/// (sched.processed, sched.steal.local/remote/fail).
struct RankStats {
  std::uint64_t processed = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t remote_steals = 0;
  std::uint64_t failed_probes = 0;
};

namespace detail {
inline const trace::CounterId kProcessed = trace::intern("sched.processed");
inline const trace::CounterId kBackoff = trace::intern("sched.backoff");
inline const trace::CounterId kTerminated = trace::intern("sched.terminated");
inline const trace::CounterId kStealAttempt =
    trace::intern("sched.steal.attempt");
inline const trace::CounterId kStealFail = trace::intern("sched.steal.fail");
inline const trace::CounterId kStealSuccess =
    trace::intern("sched.steal.success");
inline const trace::CounterId kStealLocal = trace::intern("sched.steal.local");
inline const trace::CounterId kStealRemote =
    trace::intern("sched.steal.remote");
}  // namespace detail

template <class T>
class WorkStealing {
 public:
  /// `process(item, emit)` does the real per-item work and appends any
  /// generated child items to `emit`.
  using Process = std::function<void(const T&, std::vector<T>&)>;

  WorkStealing(gas::Runtime& rt, StealParams params, Process process)
      : rt_(&rt),
        params_(params),
        process_(std::move(process)),
        steal_fault_(rt.fault_hooks().steal) {
    stacks_.reserve(static_cast<std::size_t>(rt.threads()));
    for (int r = 0; r < rt.threads(); ++r) {
      stacks_.push_back(
          std::make_unique<StealStack<T>>(rt, r, params_.chunk));
    }
  }

  /// Seed rank `rank`'s stack before the run (typically the root at rank 0).
  void seed_work(int rank, std::vector<T> items) {
    outstanding_ += static_cast<std::int64_t>(items.size());
    for (auto& item : items) {
      stacks_[static_cast<std::size_t>(rank)]->push(std::move(item));
    }
  }

  /// The SPMD kernel body: call from every rank, co_await to completion.
  [[nodiscard]] sim::Task<void> run(gas::Thread& self) {
    const int me = self.rank();
    auto& stack = *stacks_[static_cast<std::size_t>(me)];
    trace::Counters& counters = rt_->counters();
    util::Xoshiro256ss rng(params_.seed ^
                           (0x9E3779B97F4A7C15ULL * (me + 1)));
    std::vector<T> children;
    sim::Time backoff = 2 * sim::kMicrosecond;
    // One epoch spans the whole state machine: coherence events inside
    // (locks, bulk steals) invalidate as they happen, and the guard's
    // destructor closes the epoch on every exit path, including unwinds.
    std::optional<gas::CachedEpoch> cache_epoch;
    if (params_.cache_probes) cache_epoch.emplace(self, params_.cache);

    while (outstanding_ > 0) {
      // --- Working ------------------------------------------------------
      if (stack.local_count() > 0) {
        const trace::Scope span(rt_->tracer(), trace::Category::sched, "work",
                                me);
        int done = 0;
        T item;
        while (done < params_.batch && stack.pop(item)) {
          children.clear();
          process_(item, children);
          for (auto& c : children) stack.push(std::move(c));
          outstanding_ += static_cast<std::int64_t>(children.size()) - 1;
          ++done;
        }
        counters.add(detail::kProcessed, me, static_cast<std::uint64_t>(done));
        co_await self.compute(kItemCostS * done);
        co_await stack.maybe_release(self);
        backoff = 2 * sim::kMicrosecond;
        continue;
      }
      // --- Local reacquire (own shared portion) --------------------------
      if (co_await stack.reacquire(self)) continue;
      // --- Discovery + stealing per policy -------------------------------
      if (co_await try_steal(self, rng)) {
        backoff = 2 * sim::kMicrosecond;
        continue;
      }
      if (outstanding_ <= 0) break;
      counters.add(detail::kBackoff, me);
      co_await sim::delay(rt_->engine(), backoff);
      backoff = std::min<sim::Time>(backoff * 2, 100 * sim::kMicrosecond);
    }
    if (trace::Tracer* tr = rt_->tracer()) {
      tr->instant(trace::Category::sched, "terminate", me,
                  counters.get(detail::kProcessed, me));
    }
    counters.add(detail::kTerminated, me);
    co_return;
  }

  [[nodiscard]] RankStats stats(int rank) const {
    const trace::Counters& c = rt_->counters();
    return RankStats{.processed = c.get(detail::kProcessed, rank),
                     .local_steals = c.get(detail::kStealLocal, rank),
                     .remote_steals = c.get(detail::kStealRemote, rank),
                     .failed_probes = c.get(detail::kStealFail, rank)};
  }
  [[nodiscard]] std::uint64_t total_processed() const {
    return rt_->counters().total(detail::kProcessed);
  }
  [[nodiscard]] double local_steal_ratio() const {
    const trace::Counters& c = rt_->counters();
    const std::uint64_t local = c.total(detail::kStealLocal);
    const std::uint64_t all = local + c.total(detail::kStealRemote);
    return all == 0 ? 0.0 : static_cast<double>(local) / static_cast<double>(all);
  }
  [[nodiscard]] StealStack<T>& stack(int rank) {
    return *stacks_[static_cast<std::size_t>(rank)];
  }
  /// Work-conservation counter: seeded + generated - fully processed. Zero
  /// after a clean run; nonzero (or stacks left non-empty) flags a lost or
  /// duplicated item — what fault::check_steal_conservation asserts on.
  [[nodiscard]] std::int64_t outstanding() const noexcept {
    return outstanding_;
  }

 private:
  /// One discovery sweep. Returns true if work was stolen.
  [[nodiscard]] sim::Task<bool> try_steal(gas::Thread& self,
                                          util::Xoshiro256ss& rng) {
    const int me = self.rank();
    trace::Counters& counters = rt_->counters();
    const int nthreads = rt_->threads();
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(nthreads) - 1);
    if (params_.policy == VictimPolicy::local_first) {
      // Local candidates first (random order), then remote (random order).
      std::vector<int> local, remote;
      for (int r = 0; r < nthreads; ++r) {
        if (r == me) continue;
        (rt_->node_of(r) == rt_->node_of(me) ? local : remote).push_back(r);
      }
      shuffle(local, rng);
      shuffle(remote, rng);
      order.insert(order.end(), local.begin(), local.end());
      order.insert(order.end(), remote.begin(), remote.end());
    } else {
      for (int r = 0; r < nthreads; ++r) {
        if (r != me) order.push_back(r);
      }
      shuffle(order, rng);
    }

    std::vector<T> loot;
    for (int victim : order) {
      const bool victim_local = rt_->node_of(victim) == rt_->node_of(me);
      auto& vstack = *stacks_[static_cast<std::size_t>(victim)];
      counters.add(detail::kStealAttempt, me);
      // Fault injection: a transient steal failure (contention storm) makes
      // the victim look empty without even probing.
      if (steal_fault_ != nullptr && steal_fault_->fail_steal(me, victim)) {
        counters.add(detail::kStealFail, me);
        continue;
      }
      const std::size_t visible = co_await vstack.probe(self);
      if (visible == 0) {
        counters.add(detail::kStealFail, me);
        continue;
      }
      const std::size_t got = co_await vstack.steal(
          self, loot, params_.granularity, params_.rapid_diffusion,
          params_.test_split_off_by_one);
      if (got > 0) {
        auto& mine = *stacks_[static_cast<std::size_t>(me)];
        for (auto& item : loot) mine.push(std::move(item));
        // a0 = victim chosen, a1 = items stolen.
        if (trace::Tracer* tr = rt_->tracer()) {
          tr->instant(trace::Category::sched, "steal", me,
                      static_cast<std::uint64_t>(victim), got);
        }
        counters.add(detail::kStealSuccess, me);
        if (victim_local) {
          counters.add(detail::kStealLocal, me);
        } else {
          counters.add(detail::kStealRemote, me);
        }
        co_return true;
      }
      counters.add(detail::kStealFail, me);
    }
    co_return false;
  }

  static void shuffle(std::vector<int>& v, util::Xoshiro256ss& rng) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.below(i)]);
    }
  }

  gas::Runtime* rt_;
  StealParams params_;
  Process process_;
  fault::StealHook* steal_fault_;
  std::vector<std::unique_ptr<StealStack<T>>> stacks_;
  std::int64_t outstanding_ = 0;
};

}  // namespace hupc::sched
