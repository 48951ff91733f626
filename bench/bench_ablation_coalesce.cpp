// Ablation: per-destination software coalescing (src/comm) on the GUPS
// fine-grained access pattern — the Berkeley-UPC/GASNet-VIS aggregation
// story. The naive variant pays one network API call per remote update;
// the coalesced variant runs the IDENTICAL loop inside a Thread
// coalescing epoch, so the runtime batches updates per destination node
// and amortizes the per-message overhead. The grouped (thread-group
// proxy) variant is shown as the hand-optimized upper bound.
//
// Harnessed under src/perf: each variant is one registered benchmark
// (`gups.coalesce.*`) reporting a modeled `gups` metric plus the trace
// counters that explain it (messages on the wire, aggregated ops); the
// paper-style table below is a formatter over the same samples.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "stream/random_access.hpp"
#include "trace/counters.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kThreads = 64;
constexpr int kNodes = 8;
constexpr int kLog2Table = 16;

void run_variant(perf::Context& ctx, stream::GupsVariant variant,
                 const comm::Params& coalesce) {
  const std::uint64_t updates = ctx.smoke() ? 1500 : 6000;
  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("lehman", kNodes, kThreads));
  stream::RandomAccess ra(rt, kLog2Table);
  const auto r = ra.run(variant, updates, /*passes=*/1, coalesce);

  ctx.set_config("machine", "lehman");
  ctx.set_config("conduit", "ib-qdr");
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(kThreads));
  ctx.set_config("nodes", std::to_string(kNodes));
  ctx.set_config("log2_table", std::to_string(kLog2Table));
  ctx.set_config("updates", std::to_string(updates));
  ctx.report("gups", r.gups, "GUPS");
  ctx.report_trace_counters(engine.counters(),
                            {"net.msg", "net.bytes", "net.aggregated",
                             "net.coalesced_ops", "comm.flush.msgs"});
}

comm::Params buffer_params(std::size_t ops) {
  comm::Params p;
  p.max_ops = ops;
  p.max_bytes = 16384;
  return p;
}

PERF_BENCHMARK("gups.coalesce.naive") {
  run_variant(ctx, stream::GupsVariant::naive, {});
}
PERF_BENCHMARK("gups.coalesce.buf16") {
  run_variant(ctx, stream::GupsVariant::coalesced, buffer_params(16));
}
PERF_BENCHMARK("gups.coalesce.buf64") {
  run_variant(ctx, stream::GupsVariant::coalesced, buffer_params(64));
}
PERF_BENCHMARK("gups.coalesce.buf256") {
  run_variant(ctx, stream::GupsVariant::coalesced, buffer_params(256));
}
PERF_BENCHMARK("gups.coalesce.buf512") {
  run_variant(ctx, stream::GupsVariant::coalesced, buffer_params(512));
}
PERF_BENCHMARK("gups.coalesce.grouped") {
  run_variant(ctx, stream::GupsVariant::grouped, {});
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  const perf::Result* naive = bench::find_result(results, "gups.coalesce.naive");
  if (naive == nullptr) return 0;  // filtered out; nothing to gate against
  const double naive_gups = naive->median("gups");

  os << "\n(a) Coalescing buffer sweep (" << kThreads << " ranks, "
     << kNodes << " nodes, QDR IB)\n";
  util::Table table({"Buffer (ops x bytes)", "GUPS", "vs naive"});
  table.add_row({"off (naive)", util::Table::num(naive_gups, 5), "1.00"});
  double best = 0.0;
  for (const int ops : {16, 64, 256, 512}) {
    const auto* r = bench::find_result(
        results, "gups.coalesce.buf" + std::to_string(ops));
    if (r == nullptr) continue;
    const double gups = r->median("gups");
    best = std::max(best, gups);
    table.add_row({std::to_string(ops) + " x 16K", util::Table::num(gups, 5),
                   util::Table::num(gups / naive_gups, 2)});
  }
  if (const auto* grouped = bench::find_result(results, "gups.coalesce.grouped");
      grouped != nullptr) {
    const double gups = grouped->median("gups");
    table.add_row({"hand-bucketed (grouped)", util::Table::num(gups, 5),
                   util::Table::num(gups / naive_gups, 2)});
  }
  table.print(os);

  if (best == 0.0) return 0;
  char line[96];
  std::snprintf(line, sizeof line,
                "\nBest coalesced speedup over naive: %.2fx %s\n",
                best / naive_gups,
                best / naive_gups >= 1.5 ? "(PASS >= 1.5x)" : "(FAIL < 1.5x)");
  os << line;
  return best / naive_gups >= 1.5 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(
      "bench_ablation_coalesce", argc, argv,
      "Ablation — software message coalescing on RandomAccess (GUPS)",
      "aggregating fine-grained remote updates per destination node "
      "amortizes the per-message API cost (thesis §4.3 aggregation)",
      report);
}
