// Ablation: the software read cache (src/comm/read_cache) on the
// read-dominated gather workload — bursts of consecutive table elements
// read through fine-grained remote gets. Uncached, every element pays a
// full remote round trip; inside a read-cache epoch the first element of
// each remote burst fills an aligned line in ONE round trip and the rest
// of the burst serves at local cost, so the modeled read rate scales with
// the line size until eviction pressure bites.
//
// Harnessed under src/perf: each geometry is one registered benchmark
// (`gather.readcache.*`) reporting a modeled `mreads` metric plus the
// trace counters that explain it (wire messages, cache hits/misses/
// evictions/invalidations). The cache-off id runs the IDENTICAL loop with
// no epoch open and must stay bit-identical to a build without the cache.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stream/random_access.hpp"
#include "trace/counters.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kThreads = 64;
constexpr int kNodes = 8;
constexpr int kLog2Table = 16;

void run_variant(perf::Context& ctx, bool cached, std::size_t line_bytes,
                 std::size_t lines) {
  stream::GatherParams params;
  params.bursts = ctx.smoke() ? 24 : 64;
  params.burst_len = ctx.smoke() ? 48 : 64;
  params.cached = cached;
  if (cached) {
    params.cache.line_bytes = line_bytes;
    params.cache.lines = lines;
  }

  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("lehman", kNodes, kThreads));
  stream::RandomAccess ra(rt, kLog2Table);
  const auto r = ra.run_gather(params);

  ctx.set_config("machine", "lehman");
  ctx.set_config("conduit", "ib-qdr");
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(kThreads));
  ctx.set_config("nodes", std::to_string(kNodes));
  ctx.set_config("log2_table", std::to_string(kLog2Table));
  ctx.set_config("bursts", std::to_string(params.bursts));
  ctx.set_config("burst_len", std::to_string(params.burst_len));
  ctx.set_config("read_cache", params.cached ? "on" : "off");
  if (params.cached) {
    ctx.set_config("cache_lines", std::to_string(params.cache.lines));
    ctx.set_config("cache_line_bytes",
                   std::to_string(params.cache.line_bytes));
  }
  // The checksum is the transparency witness: identical for every id.
  ctx.set_config("checksum", std::to_string(r.checksum));
  ctx.report("mreads", r.mreads, "Mreads/s");
  ctx.report_trace_counters(
      engine.counters(),
      {"net.msg", "net.bytes", "net.aggregated", "gas.cache.hits",
       "gas.cache.misses", "gas.cache.evictions", "gas.cache.invalidations"});
}

PERF_BENCHMARK("gather.readcache.off") {
  run_variant(ctx, /*cached=*/false, 0, 0);
}
PERF_BENCHMARK("gather.readcache.line64") {
  run_variant(ctx, /*cached=*/true, /*line_bytes=*/64, /*lines=*/256);
}
PERF_BENCHMARK("gather.readcache.line256") {
  run_variant(ctx, /*cached=*/true, /*line_bytes=*/256, /*lines=*/256);
}
// Deliberately undersized (8 lines, 4-way -> 2 sets): measures how fast
// the win evaporates under eviction pressure.
PERF_BENCHMARK("gather.readcache.tiny") {
  run_variant(ctx, /*cached=*/true, /*line_bytes=*/64, /*lines=*/8);
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  const perf::Result* off = bench::find_result(results, "gather.readcache.off");
  if (off == nullptr) return 0;  // filtered out; nothing to gate against
  const double off_mreads = off->median("mreads");

  os << "\nRead-cache ablation on the gather workload (" << kThreads
     << " ranks, " << kNodes << " nodes, QDR IB)\n";
  util::Table table({"Cache geometry", "Mreads/s", "vs off"});
  table.add_row({"off", util::Table::num(off_mreads, 3), "1.00"});
  double best = 0.0;
  const struct {
    const char* id;
    const char* label;
  } rows[] = {
      {"gather.readcache.line64", "256 lines x 64 B"},
      {"gather.readcache.line256", "256 lines x 256 B"},
      {"gather.readcache.tiny", "8 lines x 64 B (thrash)"},
  };
  for (const auto& row : rows) {
    const auto* r = bench::find_result(results, row.id);
    if (r == nullptr) continue;
    const double mreads = r->median("mreads");
    best = std::max(best, mreads);
    table.add_row({row.label, util::Table::num(mreads, 3),
                   util::Table::num(mreads / off_mreads, 2)});
  }
  table.print(os);

  if (best == 0.0) return 0;
  char line[96];
  std::snprintf(line, sizeof line,
                "\nBest cached speedup over off: %.2fx %s\n", best / off_mreads,
                best / off_mreads >= 5.0 ? "(PASS >= 5x)" : "(FAIL < 5x)");
  os << line;
  return best / off_mreads >= 5.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(
      "bench_ablation_readcache", argc, argv,
      "Ablation — software read cache on the gather (burst-read) workload",
      "caching remote get lines amortizes fine-grained read latency the "
      "same way privatization does for local data (thesis §4.3)",
      report);
}
