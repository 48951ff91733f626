// Shared UTS cell driver for the Fig 3.3 / Table 3.2 / ablation benches.
#pragma once

#include <cstdint>
#include <string>

#include "bench_common.hpp"
#include "sched/work_stealing.hpp"
#include "trace/counters.hpp"
#include "uts/tree.hpp"

namespace hupc::bench {

enum class UtsVariant { baseline, local_steal, local_steal_diffusion };

/// The variant's cell-id segment and its display name.
[[nodiscard]] inline const char* tag(UtsVariant v) {
  constexpr const char* kTags[] = {"baseline", "local", "diffusion"};
  return kTags[static_cast<int>(v)];
}
[[nodiscard]] inline const char* to_string(UtsVariant v) {
  constexpr const char* kNames[] = {"Baseline", "Local-stealing",
                                    "Local-stealing + Rapid-diffusion"};
  return kNames[static_cast<int>(v)];
}

/// The ablations' UTS shape: the paper configuration (4.5M-node tree, 64
/// threads, 16 nodes) in the full tier; the ~0.5M-node quick tree on 32
/// threads / 8 nodes in smoke, so the CI gate stays fast.
struct UtsShape {
  uts::TreeParams tree = uts::paper_tree();
  int threads = 64;
  int nodes = 16;
};

[[nodiscard]] inline UtsShape ablation_shape(const perf::Context& ctx) {
  UtsShape shape;
  if (ctx.smoke()) {
    shape.tree.root_seed = 42;
    shape.threads = 32;
    shape.nodes = 8;
  }
  return shape;
}

/// What a cell may attach beyond the metrics run_uts records.
struct UtsRun {
  std::uint64_t failed_probes = 0;
  trace::Counters counters;  // the run's counter registry
};

/// One UTS cell: `threads` ranks over `nodes` Pyramid nodes on `conduit`
/// (a positive `latency_s` overrides the conduit's wire latency). Records
/// the configuration, Mnodes/s, the local-steal ratio and the steal counts
/// into `ctx`.
inline UtsRun run_uts(perf::Context& ctx, const uts::TreeParams& tree,
                      int threads, int nodes, const std::string& conduit,
                      UtsVariant variant, int granularity,
                      double latency_s = 0.0) {
  sim::Engine engine;
  auto config = gas::preset_config("pyramid", nodes, threads,
                                   gas::Backend::processes, conduit);
  if (latency_s > 0.0) config.conduit.latency_s = latency_s;
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
  std::uint64_t local_steals = 0;
  std::uint64_t remote_steals = 0;
  for (int r = 0; r < threads; ++r) {
    const auto& s = ws.stats(r);
    local_steals += s.local_steals;
    remote_steals += s.remote_steals;
    result.failed_probes += s.failed_probes;
  }
  result.counters = engine.counters();

  ctx.set_config("machine", "pyramid");
  ctx.set_config("conduit", conduit);
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(threads));
  ctx.set_config("nodes", std::to_string(nodes));
  ctx.set_config("granularity", std::to_string(granularity));
  ctx.set_config("tree_seed", std::to_string(tree.root_seed));
  ctx.set_config("variant", to_string(variant));
  const double seconds = sim::to_seconds(engine.now());
  ctx.report("mnodes_per_s",
             static_cast<double>(ws.total_processed()) / seconds / 1e6,
             "Mnodes/s");
  ctx.report("local_steal_ratio", ws.local_steal_ratio(), "fraction");
  ctx.report_counter("tree_nodes", ws.total_processed());
  ctx.report_counter("local_steals", local_steals);
  ctx.report_counter("remote_steals", remote_steals);
  return result;
}

}  // namespace hupc::bench
