// Simulation fuzzing driver (DESIGN.md §9).
//
// fault::Fuzzer sweeps seeds over (workload x backend x conduit x plan
// template): every case is derived entirely from one 64-bit seed, runs a
// small workload under the derived FaultPlan, and checks the registered
// invariants. A failing case is shrunk to a minimal reproducer (disable
// perturbation groups, then halve magnitudes, keeping only changes that
// still fail) and reported with a one-line replay command — replaying the
// printed seed reproduces the failure bit-identically.
//
// The workloads and their draw weights are one table, `kWorkloads` in
// fuzzer.cpp. Every case runs in the same frame (`Case` there): it owns the
// tracer, engine, runtime and installed plan, runs the workload, then the
// workload's own checks and the invariants every case shares.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "sim/time.hpp"

namespace hupc::fault {

struct FuzzOptions {
  std::uint64_t base_seed = 1;
  int budget = 32;  // number of seeds to sweep (case i uses base_seed + i)
  /// Plan templates the sweep draws from. Excludes "heap-pressure" by
  /// default: injected allocation failures are *supposed* to throw, which
  /// is a different property than the conservation invariants checked here.
  std::vector<std::string> templates = {"jitter",      "latency-spike",
                                        "bw-dip",      "blackout",
                                        "steal-storm", "completion-storm",
                                        "team-storm",  "vis-storm",
                                        "kv-storm",    "mixed"};
  /// Plant the test-only steal-split off-by-one (UTS cases only): the sweep
  /// must then find a conservation violation — how the fuzzer's own
  /// detection power is regression-tested.
  bool plant_split_bug = false;
  bool verbose = false;  // log every case, not just failures
};

/// One fully-derived fuzz case. Everything — workload, backend, conduit,
/// template, plan magnitudes, tree shape — is a pure function of `seed`.
struct CaseSpec {
  std::uint64_t seed = 0;
  std::string workload;  // a name in fuzzer.cpp's workload table
  std::string backend;   // "processes" | "pthreads"
  std::string conduit;   // "ib-qdr" | "ib-ddr" | "gige"
  std::string plan;      // template name
  bool plant_split_bug = false;

  /// One-line replay command for the bench driver.
  [[nodiscard]] std::string replay_command() const;
};

struct CaseResult {
  Violations violations;
  sim::Time virtual_time = 0;
  std::uint64_t injected = 0;  // FaultPlan::injected() after the run
  std::string summary;         // trace summary export (golden determinism)

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Derive a case from one seed (the i-th sweep case uses base_seed + i).
[[nodiscard]] CaseSpec derive_case(std::uint64_t case_seed,
                                   const std::vector<std::string>& templates,
                                   bool plant_split_bug);

/// Execute one case end-to-end under an explicit plan. Deterministic: the
/// same (spec, plan) pair always produces an identical CaseResult. An
/// exception the workload throws, while it sets up or while it runs (say an
/// injected allocation failure), is recorded as the violation
/// "<workload>: exception: <what>". Throws std::invalid_argument, listing
/// the known names, for an unknown workload, backend or conduit.
[[nodiscard]] CaseResult run_case(const CaseSpec& spec,
                                  const PlanParams& plan);

/// Execute with the plan derived from the spec's own template + seed.
[[nodiscard]] CaseResult run_case(const CaseSpec& spec);

struct FuzzFailure {
  CaseSpec spec;
  Violations violations;
  PlanParams shrunk;  // minimal plan that still reproduces the failure
};

struct FuzzReport {
  int cases_run = 0;
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

class Fuzzer {
 public:
  explicit Fuzzer(FuzzOptions options) : opt_(std::move(options)) {}

  /// Sweep the seed budget; shrink and report failures to `log`.
  [[nodiscard]] FuzzReport run(std::ostream& log);

  [[nodiscard]] const FuzzOptions& options() const noexcept { return opt_; }

 private:
  [[nodiscard]] PlanParams shrink(const CaseSpec& spec, PlanParams failing);

  FuzzOptions opt_;
};

}  // namespace hupc::fault
