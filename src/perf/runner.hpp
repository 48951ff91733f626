// Drives registered benchmarks and writes the versioned JSON artifact.
//
// Flags, read from the binary's util::Cli after the binary has read its own
// (unknown flags are a hard error):
//   --list                 print benchmark ids (with tier/repetition info)
//   --filter=a,b           run benchmarks whose id contains any substring
//   --repetitions=N        sample count per benchmark (default 1: the
//                          simulation cells are deterministic)
//   --warmup=N             discarded repetitions before sampling (default 0)
//   --tier=smoke|full      workload tier (default full)
//   --json=FILE            write the artifact ("-" for stdout)
//   --no-table             suppress the generic per-metric summary table
//
// Artifact schema v1 (see DESIGN.md §11):
//   { "schema_version": 1, "suite", "tier", "fingerprint": {...},
//     "benchmarks": [ { "id", "repetitions", "warmup", "config": {...},
//                       "metrics": { name: { "unit", "direction", "kind",
//                         "median","mad","min","max","mean",
//                         "ci95_lo","ci95_hi","samples":[...] } },
//                       "counters": { name: value } } ] }
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "perf/benchmark.hpp"
#include "util/cli.hpp"

namespace hupc::perf {

struct RunnerOptions {
  std::string filter;
  int repetitions = 1;
  int warmup = 0;
  Tier tier = Tier::full;
  std::string json_path;  // empty: no artifact; "-": stdout
  bool list_only = false;
  bool print_table = true;
};

class Runner {
 public:
  Runner(std::string suite, RunnerOptions options);

  /// Read the flags above from `cli`, then reject every flag nobody has
  /// read (exit 2). A malformed value throws std::invalid_argument.
  Runner(std::string suite, const util::Cli& cli);

  [[nodiscard]] const RunnerOptions& options() const noexcept {
    return options_;
  }

  /// Stream for banners and human-readable tables: std::cerr when the JSON
  /// artifact streams to stdout (--json=-), so stdout stays parseable.
  [[nodiscard]] std::ostream& human_out() const noexcept;

  /// Run every selected benchmark and return its results (empty for
  /// --list, which prints instead).
  [[nodiscard]] std::vector<Result> run(
      const Registry& registry = Registry::instance()) const;

  /// Serialize `results` as the schema-v1 artifact.
  void write_artifact(std::ostream& os,
                      const std::vector<Result>& results) const;

  /// run() + generic summary table + artifact emission + optional custom
  /// report (the migrated benches' human tables; its return value becomes
  /// the exit code). Returns nonzero on I/O failure.
  int main(const std::function<int(const std::vector<Result>&)>& report = {},
           const Registry& registry = Registry::instance()) const;

 private:
  std::string suite_;
  RunnerOptions options_;
};

}  // namespace hupc::perf
