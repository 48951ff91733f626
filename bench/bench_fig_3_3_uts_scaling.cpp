// Reproduces Fig 3.3: "Parallel scalability on 16 cluster nodes (8-way SMP)
// for the UPC implementation of UTS" — throughput (Mnodes/s) of the three
// stealing variants over 16..128 threads on InfiniBand and Ethernet.
//
// Paper shape: the optimized variants consistently beat the baseline on
// both networks, with the largest relative gain on Ethernet (~2x at 128
// threads); steal granularity 8 on InfiniBand, 20 on Ethernet.
//
// Also reproduces Table 3.2: "Profiling Results of UTS" — overall
// improvement of the optimized (local-stealing + rapid-diffusion) variant
// over baseline, and the % of local steals for both, at 32/64/128 threads.
// Paper values: improvements IB 3.4/7.1/11.2%, Eth 49.4/66.5/99.5%;
// local-steal % baseline 36->72 (IB) and 18->58 (Eth), optimized 59->91
// and 58->90 — the ratio *rises with local worker count* even at a fixed
// local/remote configuration ratio. The table reads the same baseline and
// diffusion cells as the figure, so it adds no simulation.
//
// Harnessed under src/perf: `uts.scaling.<conduit>.t<T>.<variant>` per
// point. The smoke tier runs the ~0.5M-node quick tree at 16/32 threads;
// the full tier runs the thesis's 4-million-class tree (seed 28 ->
// 4,576,257 nodes) across the whole 16..128 sweep. For a chrome://tracing
// view of a UTS run use `examples/uts_search --trace=FILE`.
#include <algorithm>
#include <string>
#include <vector>

#include "uts_driver.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kThreadSweep[] = {16, 32, 64, 128};
constexpr int kNodes = 16;

struct Net {
  const char* conduit;
  int granularity;
  const char* label;  // Table 3.2's row prefix
};
constexpr Net kNets[] = {{"ib-ddr", 8, "Infiniband"}, {"gige", 20, "Ethernet"}};

std::string point_id(const char* conduit, int threads, bench::UtsVariant v) {
  return std::string("uts.scaling.") + conduit + ".t" +
         std::to_string(threads) + "." + bench::tag(v);
}

void register_benchmarks() {
  for (const Net& net : kNets) {
    for (const int threads : kThreadSweep) {
      for (const auto variant :
           {bench::UtsVariant::baseline, bench::UtsVariant::local_steal,
            bench::UtsVariant::local_steal_diffusion}) {
        perf::Registry::instance().add(
            {.id = point_id(net.conduit, threads, variant),
             .fn = [net, threads, variant](perf::Context& ctx) {
               uts::TreeParams tree = uts::paper_tree();
               if (ctx.smoke()) tree.root_seed = 42;
               const auto r = bench::run_uts(ctx, tree, threads, kNodes,
                                             net.conduit, variant,
                                             net.granularity);
               ctx.report_trace_counters(
                   r.counters, {"net.msg", "net.bytes", "sched.steal.attempt",
                                "sched.steal.fail"});
             },
             .in_smoke = threads <= 32});
      }
    }
  }
}

void report_fig_3_3(std::ostream& os,
                    const std::vector<perf::Result>& results) {
  for (const Net& net : kNets) {
    util::Table table({"Threads", "Baseline (Mn/s)", "Local-steal (Mn/s)",
                       "Local+diffusion (Mn/s)", "Best/baseline"});
    for (const int threads : kThreadSweep) {
      const auto* base = bench::find_result(
          results, point_id(net.conduit, threads, bench::UtsVariant::baseline));
      const auto* local = bench::find_result(
          results,
          point_id(net.conduit, threads, bench::UtsVariant::local_steal));
      const auto* diff = bench::find_result(
          results, point_id(net.conduit, threads,
                            bench::UtsVariant::local_steal_diffusion));
      if (base == nullptr || local == nullptr || diff == nullptr) continue;
      const double b = base->median("mnodes_per_s");
      const double l = local->median("mnodes_per_s");
      const double d = diff->median("mnodes_per_s");
      const double best = std::max(l, d);
      table.add_row({std::to_string(threads), util::Table::num(b, 1),
                     util::Table::num(l, 1), util::Table::num(d, 1),
                     util::Table::num(best / b, 2) + "x"});
    }
    if (table.rows() == 0) continue;
    os << "\n--- Network: " << net.conduit << " (steal granularity = "
       << net.granularity << ") ---\n";
    table.print(os);
  }
}

void report_table_3_2(std::ostream& os,
                      const std::vector<perf::Result>& results) {
  bench::banner(
      os, "Table 3.2 — UTS profiling: local-steal ratios and improvement",
      "IB improvements 3.4/7.1/11.2%; Eth 49.4/66.5/99.5%; local-steal "
      "ratio rises with threads/node in both variants");
  util::Table table({"Config (total/local)", "Overall improvement",
                     "Local steal % (baseline)", "Local steal % (optimized)"});
  for (const Net& net : kNets) {
    for (const int threads : {32, 64, 128}) {
      const auto* base = bench::find_result(
          results, point_id(net.conduit, threads, bench::UtsVariant::baseline));
      const auto* opt = bench::find_result(
          results, point_id(net.conduit, threads,
                            bench::UtsVariant::local_steal_diffusion));
      if (base == nullptr || opt == nullptr) continue;
      // Both variants process the same tree, so the throughput ratio is
      // the run-time ratio.
      const double improvement =
          opt->median("mnodes_per_s") / base->median("mnodes_per_s") - 1.0;
      table.add_row({std::string(net.label) + " " + std::to_string(threads) +
                         "/" + std::to_string(threads / kNodes),
                     util::Table::pct(improvement, 1),
                     util::Table::pct(base->median("local_steal_ratio"), 1),
                     util::Table::pct(opt->median("local_steal_ratio"), 1)});
    }
  }
  table.print(os);
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  return bench::run_main(
      "bench_fig_3_3_uts_scaling", argc, argv,
      "Fig 3.3 — UTS scalability, 16 nodes, 3 variants x 2 networks",
      "optimized > baseline everywhere; ~2x gain on Ethernet at 128 threads; "
      "granularity IB=8, Eth=20",
      [](std::ostream& os, const std::vector<perf::Result>& results) {
        report_fig_3_3(os, results);
        report_table_3_2(os, results);
        return 0;
      });
}
