// Fault-injection seams.
//
// Pure-virtual hook interfaces consulted at the runtime's perturbation
// points: engine event scheduling (sim::Engine), per-message network
// mutation (net::Network), steal attempts (sched::WorkStealing), shared-heap
// allocation (gas::SharedHeap) and sub-thread spawning (core::SubPool).
//
// This header is dependency-free (like trace/) so every layer can declare a
// hook pointer without linking against the fault library; the concrete
// implementation (fault::FaultPlan) lives at the top of the stack. Every
// seam is a single raw-pointer null check, off by default — with no plan
// installed the simulation is bit-identical to a build without the seams.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hupc::fault {

/// Perturbs engine event scheduling. `now`/`at` are sim::Time nanoseconds;
/// the returned time is clamped to `now` by the engine, so a hook can delay
/// events (legal reordering between causally unrelated events) but never
/// violate virtual-time monotonicity.
struct ScheduleHook {
  virtual ~ScheduleHook() = default;
  [[nodiscard]] virtual std::int64_t perturb_schedule(
      std::int64_t now, std::int64_t at) noexcept = 0;
};

/// Per-message mutation applied at network injection time.
struct MessageMutation {
  double hold_s = 0.0;    // delay before the message enters the API queue
  double bw_scale = 1.0;  // scales the per-flow wire cap for this message
};

/// `rank` is the sending rank, `src_node` and `dst_node` the message's ends.
struct MessageHook {
  virtual ~MessageHook() = default;
  [[nodiscard]] virtual MessageMutation on_message(int rank, int src_node,
                                                   int dst_node) noexcept = 0;
};

/// Transient steal-attempt failure (contention storms): a true return makes
/// the thief treat `victim` as empty without even probing.
struct StealHook {
  virtual ~StealHook() = default;
  [[nodiscard]] virtual bool fail_steal(int thief, int victim) noexcept = 0;
};

/// Heap-pressure injection: a true return makes the allocation throw
/// std::bad_alloc. `allocated` is the heap's total bytes handed out so far.
struct AllocHook {
  virtual ~AllocHook() = default;
  [[nodiscard]] virtual bool fail_alloc(int owner, std::size_t bytes,
                                        std::size_t allocated) noexcept = 0;
};

/// Sub-thread spawn throttling: clamps the requested width of a SubPool
/// whose master is `rank` (models slot exhaustion / a crowded node). Must
/// return a value in [1, requested].
struct SpawnHook {
  virtual ~SpawnHook() = default;
  [[nodiscard]] virtual int clamp_spawn_width(int rank,
                                              int requested) noexcept = 0;
};

/// Read-cache pressure (invalidation storms): a true return makes a cache
/// hit in `rank`'s read cache demote to a line refill. The cache holds no
/// data (tags only), so this can never change values — only the modeled
/// cost schedule, deterministically per plan seed.
struct CacheHook {
  virtual ~CacheHook() = default;
  [[nodiscard]] virtual bool drop_cached_line(int rank) noexcept = 0;
};

/// Asynchronous-completion delay (completion storms): the returned value
/// (nanoseconds, >= 0) is extra virtual time injected between an async
/// operation finishing its work and its completion firing on `rank` — a
/// launch_async future resolving, or an RPC reply being delivered. Data
/// movement and invalidation have already happened when the seam is
/// consulted, so a hook can reorder COMPLETIONS against unrelated work
/// but never values: exactly the window the check_async_ordering
/// invariant patrols.
struct CompletionHook {
  virtual ~CompletionHook() = default;
  [[nodiscard]] virtual std::int64_t delay_completion(int rank) noexcept = 0;
};

/// The full hook set a plan installs on a gas::Runtime. All pointers are
/// non-owning and may be null (that seam stays untouched).
struct Hooks {
  ScheduleHook* schedule = nullptr;
  MessageHook* message = nullptr;
  StealHook* steal = nullptr;
  AllocHook* alloc = nullptr;
  SpawnHook* spawn = nullptr;
  CacheHook* cache = nullptr;
  CompletionHook* completion = nullptr;
};

}  // namespace hupc::fault
