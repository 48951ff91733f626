// Environment fingerprint stamped into every benchmark artifact.
//
// A perf number is only comparable to another perf number taken under the
// same conditions; the fingerprint records the conditions so the compare
// tool can warn when apples meet oranges: git revision (from $HUPC_GIT_SHA,
// exported by tools/run_bench_suite.sh), CMake build type and flags (baked
// in at compile time), compiler, the trace level (trace::kTraceLevel), and
// the suite tier. Per-benchmark machine / conduit / backend configuration
// lives next to each benchmark's results, not here — one artifact can mix
// machine presets.
#pragma once

#include <string>

#include "perf/json.hpp"

namespace hupc::perf {

struct Fingerprint {
  std::string suite;       // producing binary, e.g. "bench_gups_groups"
  std::string tier;        // "smoke" | "full"
  std::string git_sha;     // $HUPC_GIT_SHA, or "unknown"
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string cxx_flags;   // CMAKE_CXX_FLAGS
  std::string compiler;    // __VERSION__
  int trace_level = 0;     // trace::kTraceLevel

  [[nodiscard]] Json to_json() const;
};

/// Collect the fingerprint for this process (compile-time macros + env).
[[nodiscard]] Fingerprint collect_fingerprint(std::string suite,
                                              std::string tier);

}  // namespace hupc::perf
