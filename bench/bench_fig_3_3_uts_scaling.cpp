// Reproduces Fig 3.3: "Parallel scalability on 16 cluster nodes (8-way SMP)
// for the UPC implementation of UTS" — throughput (Mnodes/s) of the three
// stealing variants over 16..128 threads on InfiniBand and Ethernet.
//
// Paper shape: the optimized variants consistently beat the baseline on
// both networks, with the largest relative gain on Ethernet (~2x at 128
// threads); steal granularity 8 on InfiniBand, 20 on Ethernet.
//
// Harnessed under src/perf: `uts.scaling.<conduit>.t<T>.<variant>` per
// point. The smoke tier runs the ~0.5M-node quick tree at 16/32 threads;
// the full tier runs the thesis's 4-million-class tree (seed 28 ->
// 4,576,257 nodes) across the whole 16..128 sweep. For a chrome://tracing
// view of a UTS run use `examples/uts_search --trace=FILE`.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "perf/runner.hpp"
#include "uts_driver.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kThreadSweep[] = {16, 32, 64, 128};
constexpr int kNodes = 16;

struct Net {
  const char* conduit;
  int granularity;
};
constexpr Net kNets[] = {{"ib-ddr", 8}, {"gige", 20}};

const char* variant_tag(bench::UtsVariant v) {
  switch (v) {
    case bench::UtsVariant::baseline: return "baseline";
    case bench::UtsVariant::local_steal: return "local";
    case bench::UtsVariant::local_steal_diffusion: return "diffusion";
  }
  return "?";
}

void run_point(perf::Context& ctx, const Net& net, int threads,
               bench::UtsVariant variant) {
  uts::TreeParams tree = uts::paper_tree();
  if (ctx.smoke()) tree.root_seed = 42;
  const auto r = bench::run_uts(tree, threads, kNodes, net.conduit, variant,
                                net.granularity);

  ctx.set_config("machine", "pyramid");
  ctx.set_config("conduit", net.conduit);
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(threads));
  ctx.set_config("nodes", std::to_string(kNodes));
  ctx.set_config("granularity", std::to_string(net.granularity));
  ctx.set_config("tree_seed", std::to_string(tree.root_seed));
  ctx.set_config("variant", to_string(variant));
  ctx.report("mnodes_per_s", r.mnodes_per_s, "Mnodes/s");
  ctx.report("local_steal_ratio", r.local_steal_ratio, "fraction");
  ctx.report_counter("tree_nodes", r.nodes);
  ctx.report_counter("local_steals", r.local_steals);
  ctx.report_counter("remote_steals", r.remote_steals);
  ctx.report_trace_counters(r.counters,
                            {"net.msg", "net.bytes", "sched.steal.attempt",
                             "sched.steal.fail"});
}

std::string point_id(const char* conduit, int threads, bench::UtsVariant v) {
  return std::string("uts.scaling.") + conduit + ".t" +
         std::to_string(threads) + "." + variant_tag(v);
}

void register_benchmarks() {
  for (const Net& net : kNets) {
    for (const int threads : kThreadSweep) {
      for (const auto variant :
           {bench::UtsVariant::baseline, bench::UtsVariant::local_steal,
            bench::UtsVariant::local_steal_diffusion}) {
        perf::Benchmark b;
        b.id = point_id(net.conduit, threads, variant);
        b.in_smoke = threads <= 32;
        b.fn = [net, threads, variant](perf::Context& ctx) {
          run_point(ctx, net, threads, variant);
        };
        perf::Registry::instance().add(std::move(b));
      }
    }
  }
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  const perf::Runner runner("bench_fig_3_3_uts_scaling", argc, argv);
  bench::banner(runner.human_out(),
                "Fig 3.3 — UTS scalability, 16 nodes, 3 variants x 2 networks",
                "optimized > baseline everywhere; ~2x gain on Ethernet at "
                "128 threads; granularity IB=8, Eth=20");
  return runner.main([&](const std::vector<perf::Result>& results) {
    return report(runner.human_out(), results);
  });
}
