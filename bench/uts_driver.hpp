// Shared UTS run driver for the Fig 3.3 / Table 3.2 / ablation benches.
#pragma once

#include <memory>
#include <string>

#include "bench_common.hpp"
#include "gas/gas.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "trace/counters.hpp"
#include "uts/tree.hpp"

namespace hupc::bench {

struct UtsRun {
  double seconds = 0;
  double mnodes_per_s = 0;
  double local_steal_ratio = 0;
  std::uint64_t nodes = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t remote_steals = 0;
  std::uint64_t failed_probes = 0;
  trace::Counters counters;  // the run's counter registry
};

enum class UtsVariant { baseline, local_steal, local_steal_diffusion };

[[nodiscard]] inline const char* to_string(UtsVariant v) {
  switch (v) {
    case UtsVariant::baseline: return "Baseline";
    case UtsVariant::local_steal: return "Local-stealing";
    case UtsVariant::local_steal_diffusion: return "Local-stealing + Rapid-diffusion";
  }
  return "?";
}

/// One UTS run: `threads` ranks over `nodes` Pyramid nodes on `conduit`.
[[nodiscard]] inline UtsRun run_uts(const uts::TreeParams& tree, int threads,
                                    int nodes, const std::string& conduit,
                                    UtsVariant variant, int granularity) {
  sim::Engine engine;
  const auto config = make_config("pyramid", nodes, threads,
                                  gas::Backend::processes, conduit);
  gas::Runtime rt(engine, config);
  sched::StealParams params;
  params.policy = variant == UtsVariant::baseline
                      ? sched::VictimPolicy::random
                      : sched::VictimPolicy::local_first;
  params.rapid_diffusion = variant == UtsVariant::local_steal_diffusion;
  params.granularity = granularity;
  params.chunk = granularity;

  sched::WorkStealing<uts::Node> ws(
      rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](gas::Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();

  UtsRun result;
  result.seconds = sim::to_seconds(engine.now());
  result.nodes = ws.total_processed();
  result.mnodes_per_s =
      static_cast<double>(result.nodes) / result.seconds / 1e6;
  result.local_steal_ratio = ws.local_steal_ratio();
  for (int r = 0; r < threads; ++r) {
    const auto& s = ws.stats(r);
    result.local_steals += s.local_steals;
    result.remote_steals += s.remote_steals;
    result.failed_probes += s.failed_probes;
  }
  result.counters = engine.counters();
  return result;
}

}  // namespace hupc::bench
