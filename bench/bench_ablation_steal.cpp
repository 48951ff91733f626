// Ablation: steal-granularity sweep and rapid-diffusion contribution.
//
// The thesis states "the work stealing granularity parameter has a strong
// impact on performance" and picks 8 (IB) / 20 (Ethernet); rapid diffusion
// (steal-half) is claimed to mitigate local starvation under local-first
// stealing. This bench quantifies both on our model.
//
// Harnessed under src/perf: `uts.steal.<conduit>.k<K>.<fixed|diffusion>`
// per point, the full k sweep in the full tier and {1, 8, 32} in smoke, on
// bench::ablation_shape's workload.
#include <string>
#include <vector>

#include "uts_driver.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kGranularities[] = {1, 2, 4, 8, 16, 32, 64};
const char* const kConduits[] = {"ib-ddr", "gige"};

void run_point(perf::Context& ctx, const std::string& conduit, int k,
               bench::UtsVariant variant) {
  const bench::UtsShape shape = bench::ablation_shape(ctx);
  const auto r = bench::run_uts(ctx, shape.tree, shape.threads, shape.nodes,
                                conduit, variant, k);
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
        perf::Registry::instance().add(
            {.id = point_id(conduit, k, diffusion),
             .fn = [conduit = std::string(conduit), k,
                    diffusion](perf::Context& ctx) {
               run_point(ctx, conduit, k,
                         diffusion ? bench::UtsVariant::local_steal_diffusion
                                   : bench::UtsVariant::local_steal);
             },
             .in_smoke = k == 1 || k == 8 || k == 32});
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
  return bench::run_main("bench_ablation_steal", argc, argv,
                         "Ablation — UTS steal granularity and rapid diffusion",
                         "thesis picks k=8 (IB) / k=20 (Ethernet); steal-half "
                         "mitigates starvation under local-first stealing",
                         report);
}
