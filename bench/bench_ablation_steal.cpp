// Ablation: steal-granularity sweep and rapid-diffusion contribution.
//
// The thesis states "the work stealing granularity parameter has a strong
// impact on performance" and picks 8 (IB) / 20 (Ethernet); rapid diffusion
// (steal-half) is claimed to mitigate local starvation under local-first
// stealing. This bench quantifies both on our model.
//
// Harnessed under src/perf: one benchmark per (conduit, granularity,
// variant) point — `uts.steal.<conduit>.k<K>.<fixed|diffusion>` — with the
// full k sweep in the full tier and {1, 8, 32} in smoke. The smoke tier
// also drops to the ~0.5M-node quick tree on 32 threads / 8 nodes so the
// CI gate stays fast; the paper configuration (4.5M-node tree, 64 threads,
// 16 nodes) runs in the full tier.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "perf/runner.hpp"
#include "uts_driver.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kGranularities[] = {1, 2, 4, 8, 16, 32, 64};
constexpr int kSmokeGranularities[] = {1, 8, 32};
const char* const kConduits[] = {"ib-ddr", "gige"};

bool in_smoke_sweep(int k) {
  for (const int s : kSmokeGranularities) {
    if (s == k) return true;
  }
  return false;
}

void run_point(perf::Context& ctx, const std::string& conduit, int k,
               bench::UtsVariant variant) {
  uts::TreeParams tree = uts::paper_tree();
  int threads = 64;
  int nodes = 16;
  if (ctx.smoke()) {
    tree.root_seed = 42;  // ~0.5M-node tree
    threads = 32;
    nodes = 8;
  }
  const auto r = bench::run_uts(tree, threads, nodes, conduit, variant, k);

  ctx.set_config("machine", "pyramid");
  ctx.set_config("conduit", conduit);
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(threads));
  ctx.set_config("nodes", std::to_string(nodes));
  ctx.set_config("granularity", std::to_string(k));
  ctx.set_config("tree_seed", std::to_string(tree.root_seed));
  ctx.set_config("variant", to_string(variant));
  ctx.report("mnodes_per_s", r.mnodes_per_s, "Mnodes/s");
  ctx.report("local_steal_ratio", r.local_steal_ratio, "fraction");
  ctx.report_counter("tree_nodes", r.nodes);
  ctx.report_counter("local_steals", r.local_steals);
  ctx.report_counter("remote_steals", r.remote_steals);
  ctx.report_counter("failed_probes", r.failed_probes);
  ctx.report_trace_counters(r.counters, {"net.msg", "net.bytes"});
}

std::string point_id(const std::string& conduit, int k, bool diffusion) {
  return "uts.steal." + conduit + ".k" + std::to_string(k) +
         (diffusion ? ".diffusion" : ".fixed");
}

void register_benchmarks() {
  for (const char* const conduit : kConduits) {
    for (const int k : kGranularities) {
      for (const bool diffusion : {false, true}) {
        perf::Benchmark b;
        b.id = point_id(conduit, k, diffusion);
        b.in_smoke = in_smoke_sweep(k);
        b.fn = [conduit = std::string(conduit), k, diffusion](
                   perf::Context& ctx) {
          run_point(ctx, conduit, k,
                    diffusion ? bench::UtsVariant::local_steal_diffusion
                              : bench::UtsVariant::local_steal);
        };
        perf::Registry::instance().add(std::move(b));
      }
    }
  }
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  for (const char* const conduit : kConduits) {
    util::Table table({"Granularity", "Fixed-k local-first (Mn/s)",
                       "+ rapid diffusion (Mn/s)", "Diffusion gain"});
    for (const int k : kGranularities) {
      const auto* fixed =
          bench::find_result(results, point_id(conduit, k, false));
      const auto* diff =
          bench::find_result(results, point_id(conduit, k, true));
      if (fixed == nullptr || diff == nullptr) continue;
      const double f = fixed->median("mnodes_per_s");
      const double d = diff->median("mnodes_per_s");
      table.add_row({std::to_string(k), util::Table::num(f, 1),
                     util::Table::num(d, 1), util::Table::num(d / f, 2) + "x"});
    }
    if (table.rows() == 0) continue;
    os << "\n--- " << conduit << " ---\n";
    table.print(os);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  const perf::Runner runner("bench_ablation_steal", argc, argv);
  bench::banner(runner.human_out(),
                "Ablation — UTS steal granularity and rapid diffusion",
                "thesis picks k=8 (IB) / k=20 (Ethernet); steal-half "
                "mitigates starvation under local-first stealing");
  return runner.main([&](const std::vector<perf::Result>& results) {
    return report(runner.human_out(), results);
  });
}
