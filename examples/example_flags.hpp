// Flag plumbing shared by hupc_bench, uts_search and kv_server: the tracer
// behind --trace/--trace-summary, the fault plan behind --fault-plan/
// --fault-seed, and the read cache behind --read-cache/--cache-lines/
// --cache-line-bytes. Each helper reads only the flags it names, so a binary
// takes exactly the flags of the helpers it calls.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "comm/read_cache.hpp"
#include "fault/plan.hpp"
#include "gas/gas.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace hupc::examples {

/// --trace=FILE (chrome://tracing JSON of the run) and --trace-summary=FILE
/// (per-category counts/time + counters): a tracer when either names a
/// file (else null), and the export of both once the run is over.
struct TraceFlags {
  explicit TraceFlags(const util::Cli& cli)
      : chrome(cli.get("trace", "")), summary(cli.get("trace-summary", "")) {
    if (!chrome.empty() || !summary.empty()) {
      tracer = std::make_unique<trace::Tracer>();
    }
  }

  /// Writes the requested files. With a `note`, the chrome export is also
  /// announced on stdout as "<note>: N events (D dropped) -> FILE". Returns
  /// 1, after an error line, when a file cannot be written; else 0.
  int write(const char* program, const char* note) const {
    if (!tracer) return 0;
    const auto cannot_write = [program](const char* what,
                                        const std::string& file) {
      std::fprintf(stderr, "%s: error: cannot write %s to %s\n", program,
                   what, file.c_str());
      return 1;
    };
    if (!chrome.empty()) {
      std::ofstream os(chrome);
      tracer->export_chrome(os);
      if (!os) return cannot_write("trace", chrome);
      if (note != nullptr) {
        std::printf("%s: %llu events (%llu dropped) -> %s\n", note,
                    static_cast<unsigned long long>(tracer->recorded()),
                    static_cast<unsigned long long>(tracer->dropped()),
                    chrome.c_str());
      }
    }
    if (!summary.empty()) {
      std::ofstream os(summary);
      tracer->export_summary(os);
      if (!os) return cannot_write("trace summary", summary);
    }
    return 0;
  }

  std::string chrome;
  std::string summary;
  std::unique_ptr<trace::Tracer> tracer;
};

/// --fault-plan=NAME --fault-seed=S: the seeded plan's parameters, or
/// nullopt when no plan is named.
inline std::optional<fault::PlanParams> fault_plan_flags(const util::Cli& cli) {
  const std::string name = cli.get("fault-plan", "");
  const auto seed = cli.get_int_in<std::uint64_t>("fault-seed", 1);
  if (name.empty()) return std::nullopt;
  return fault::plan_template(name, seed);
}

/// The plan installed on `rt` and announced as "-- fault: <plan>"; null
/// without one. Install it before the layers that read their hooks at
/// construction (WorkStealing, SubPool).
inline std::unique_ptr<fault::FaultPlan> install_fault_plan(
    const std::optional<fault::PlanParams>& params, gas::Runtime& rt) {
  if (!params) return nullptr;
  auto plan = std::make_unique<fault::FaultPlan>(*params);
  plan->install(rt);
  std::printf("-- fault: %s\n", plan->params().describe().c_str());
  return plan;
}

/// "-- fault: injected N perturbations" for an installed plan.
inline void fault_footer(const fault::FaultPlan* plan) {
  if (plan == nullptr) return;
  std::printf("-- fault: injected %llu perturbations\n",
              static_cast<unsigned long long>(plan->injected()));
}

/// --read-cache=on|off (default `fallback`): serve remote reads through a
/// read-cache epoch.
inline bool read_cache_flag(const util::Cli& cli, const char* fallback) {
  return cli.choice("read-cache", fallback, {"on", "off"}) == "on";
}

/// --cache-lines=N --cache-line-bytes=B: the read-cache geometry
/// (comm::CacheParams' 256 lines of 64 B by default), checked here so a bad
/// geometry exits 2 whether or not --read-cache turns the cache on.
inline comm::CacheParams cache_geometry(const util::Cli& cli) {
  comm::CacheParams params;
  params.lines = cli.get_int_in("cache-lines", params.lines);
  params.line_bytes = cli.get_int_in("cache-line-bytes", params.line_bytes);
  comm::check_geometry(params);
  return params;
}

}  // namespace hupc::examples
