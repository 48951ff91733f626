// Ablation: how the locality optimization's payoff scales with network
// latency — sweeping a synthetic conduit from InfiniBand-class to
// Ethernet-class latency while holding bandwidth fixed, isolating the
// term the local-first policy actually removes (remote lock RTTs and
// steal transfers).
//
// Harnessed under src/perf: `uts.conduit.lat<ns>ns.<baseline|diffusion>`
// per point, the whole latency sweep in the full tier and 1, 10 and 90 us
// in smoke, on bench::ablation_shape's workload.
#include <string>
#include <vector>

#include "uts_driver.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr double kLatenciesUs[] = {1.0, 2.5, 5.0, 10.0, 20.0, 45.0, 90.0};

std::string cell_id(double latency_us, bench::UtsVariant variant) {
  return "uts.conduit.lat" +
         std::to_string(static_cast<int>(latency_us * 1e3)) + "ns." +
         bench::tag(variant);
}

void register_cells() {
  for (const double latency : kLatenciesUs) {
    for (const auto variant : {bench::UtsVariant::baseline,
                               bench::UtsVariant::local_steal_diffusion}) {
      perf::Registry::instance().add(
          {.id = cell_id(latency, variant),
           .fn = [latency, variant](perf::Context& ctx) {
             const bench::UtsShape shape = bench::ablation_shape(ctx);
             // Granularity 8 is the StealParams default (granularity =
             // chunk = 8).
             bench::run_uts(ctx, shape.tree, shape.threads, shape.nodes,
                            "ib-ddr", variant, 8, latency * 1e-6);
             ctx.set_config("latency_us", util::Table::num(latency, 1));
           },
           .in_smoke = latency == 1.0 || latency == 10.0 ||
                       latency == 90.0});
    }
  }
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  util::Table table({"Latency (us)", "Baseline (Mn/s)", "Optimized (Mn/s)",
                     "Gain", "Local steal % (opt)"});
  const perf::Result* shape = nullptr;
  for (const double latency : kLatenciesUs) {
    const auto* base = bench::find_result(
        results, cell_id(latency, bench::UtsVariant::baseline));
    const auto* opt = bench::find_result(
        results, cell_id(latency, bench::UtsVariant::local_steal_diffusion));
    if (base == nullptr || opt == nullptr) continue;
    shape = base;
    const double b = base->median("mnodes_per_s");
    const double o = opt->median("mnodes_per_s");
    table.add_row({util::Table::num(latency, 1), util::Table::num(b, 1),
                   util::Table::num(o, 1), util::Table::num(o / b, 2) + "x",
                   util::Table::pct(opt->median("local_steal_ratio"), 1)});
  }
  if (shape == nullptr) return 0;
  table.print(os);
  os << "\n(" << bench::config(*shape, "threads") << " threads over "
     << bench::config(*shape, "nodes")
     << " nodes; DDR InfiniBand bandwidths, latency swept)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  register_cells();
  return bench::run_main("bench_ablation_conduit", argc, argv,
                         "Ablation — UTS locality gain vs network latency",
                         "the local-first gain should grow monotonically with "
                         "the cost of going remote",
                         report);
}
