// FaultPlan — a seeded, declarative schedule of perturbations (DESIGN.md §9).
//
// A plan bundles every supported perturbation behind one seed: engine event
// jitter (legal reordering of causally unrelated events), per-message
// latency spikes, transient bandwidth dips, link blackouts with recovery,
// transient steal-attempt failures, sub-thread spawn throttling, and
// heap-pressure (allocation-failure) injection. Installing a plan wires the
// fault::Hooks seams of a gas::Runtime; only the groups a plan enables are
// exposed, so a quiescent plan is indistinguishable from no plan at all.
//
// Everything is deterministic: one Xoshiro stream per seam, derived from
// the plan seed, consumed in the engine's deterministic call order. The
// same (seed, plan, workload) triple replays bit-identically — the property
// fault::Fuzzer's shrinker and the golden-determinism tests rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/hooks.hpp"
#include "gas/runtime.hpp"
#include "sim/engine.hpp"
#include "trace/counters.hpp"
#include "util/rng.hpp"

namespace hupc::fault {

struct PlanParams {
  std::uint64_t seed = 1;
  std::string name = "custom";

  // Engine event jitter: with probability `p`, delay a scheduled event by
  // uniform(0, max]. Timing-only: ordering constraints enforced by the
  // engine (monotone clamp) and the sync primitives still hold.
  double event_jitter_p = 0.0;
  double event_jitter_max_s = 0.0;

  // Per-message latency spikes: with probability `p`, hold a message for
  // uniform(0, max] before it enters the node's API queue.
  double msg_delay_p = 0.0;
  double msg_delay_max_s = 0.0;

  // Transient link degradation: with probability `p`, scale the message's
  // per-flow wire cap into [floor, 1).
  double msg_bw_degrade_p = 0.0;
  double msg_bw_floor = 1.0;

  // Link blackout with recovery: messages touching `blackout_node` during
  // [start, start+duration) are buffered until the link recovers. -1 = off.
  int blackout_node = -1;
  double blackout_start_s = 0.0;
  double blackout_duration_s = 0.0;

  // Transient steal-attempt failures (contention storm).
  double steal_fail_p = 0.0;

  // Sub-thread spawn throttling: caps every SubPool's width. 0 = off.
  int spawn_width_cap = 0;

  // Heap pressure: once the shared heap has handed out `after_bytes`,
  // each further allocation fails with probability `p`. 0 bytes = off.
  std::size_t alloc_fail_after_bytes = 0;
  double alloc_fail_p = 0.0;

  // Read-cache pressure (invalidation storm): each cache hit demotes to a
  // line refill with probability `p`. Cost-schedule-only — the cache holds
  // tags, not data, so modeled results cannot change. 0 = off.
  double cache_invalidate_p = 0.0;

  // Completion storm: with probability `p`, hold an asynchronous
  // completion (launch_async future resolution, RPC reply) for uniform(0,
  // max] after its work finished. Reorders when completions are OBSERVED
  // against unrelated progress — never data movement, which has already
  // happened when the seam fires (check_async_ordering's contract).
  double completion_delay_p = 0.0;
  double completion_delay_max_s = 0.0;

  /// True when no perturbation group is enabled.
  [[nodiscard]] bool quiescent() const noexcept;
  /// One-line human-readable summary of the active groups.
  [[nodiscard]] std::string describe() const;
};

/// The installable plan: implements every hook seam, draws decisions from
/// per-seam streams seeded off PlanParams::seed, and counts each decision
/// it makes once into its engine's counter registry under a fault.* name
/// (attributed to the rank the hook receives, else to the engine lane).
class FaultPlan final : public ScheduleHook,
                        public MessageHook,
                        public StealHook,
                        public AllocHook,
                        public SpawnHook,
                        public CacheHook,
                        public CompletionHook {
 public:
  explicit FaultPlan(PlanParams params);

  /// Wire this plan into `rt` (engine, network, heap seams now; steal and
  /// spawn seams are read by WorkStealing/SubPool at their construction, so
  /// install before building those). Only enabled groups are exposed.
  void install(gas::Runtime& rt);

  [[nodiscard]] const PlanParams& params() const noexcept { return params_; }
  /// Perturbations injected so far: the sum of the plan's fault.* counters
  /// (0 before install()). A message both blacked out and delayed counts
  /// twice, once per decision.
  [[nodiscard]] std::uint64_t injected() const;

  // --- hook implementations (called by the runtime seams) ----------------
  [[nodiscard]] std::int64_t perturb_schedule(std::int64_t now,
                                              std::int64_t at) noexcept override;
  [[nodiscard]] MessageMutation on_message(int rank, int src_node,
                                           int dst_node) noexcept override;
  [[nodiscard]] bool fail_steal(int thief, int victim) noexcept override;
  [[nodiscard]] bool fail_alloc(int owner, std::size_t bytes,
                                std::size_t allocated) noexcept override;
  [[nodiscard]] int clamp_spawn_width(int rank,
                                      int requested) noexcept override;
  [[nodiscard]] bool drop_cached_line(int rank) noexcept override;
  [[nodiscard]] std::int64_t delay_completion(int rank) noexcept override;

 private:
  void count(trace::CounterId id, int rank) noexcept;

  PlanParams params_;
  sim::Engine* engine_ = nullptr;  // clock for the blackout, counter registry
  util::Xoshiro256ss sched_rng_;
  util::Xoshiro256ss msg_rng_;
  util::Xoshiro256ss steal_rng_;
  util::Xoshiro256ss alloc_rng_;
  util::Xoshiro256ss cache_rng_;
  util::Xoshiro256ss completion_rng_;
};

/// Registered plan-template names ("none", "jitter", "latency-spike",
/// "bw-dip", "blackout", "steal-storm", "spawn-throttle", "heap-pressure",
/// "cache-storm", "completion-storm", "team-storm", "vis-storm", "kv-storm",
/// "mixed").
[[nodiscard]] const std::vector<std::string>& plan_template_names();

/// Instantiate a template: magnitudes are drawn deterministically from
/// `seed` within per-template sane ranges, so every seed is a different —
/// but reproducible — member of the template family. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] PlanParams plan_template(const std::string& name,
                                       std::uint64_t seed);

}  // namespace hupc::fault
