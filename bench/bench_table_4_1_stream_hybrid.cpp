// Reproduces Table 4.1: "Performance of the STREAM Triad" under hybrid
// UPC x OpenMP thread placement on one Lehman node.
//
// Paper values (GB/s): UPC(8) 24.5, OpenMP(8) 23.7, UPC*OpenMP 1x8 = 13.9,
// 2x4 = 24.7, 4x2 = 24.7. The 1x8 configuration collapses because the
// shared arrays are first-touched by the single UPC thread and all
// sub-threads inherit its socket affinity (§4.3.2).
//
// Harnessed under src/perf: one cell per placement, `stream.hybrid.u<U>s<S>`
// (U UPC threads x S OpenMP sub-threads), on 64M elements in every tier.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stream/stream.hpp"

namespace {

using namespace hupc;  // NOLINT

void run_hybrid(perf::Context& ctx, int upc_threads, int subs) {
  constexpr std::size_t kElements = 64 << 20;
  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("lehman", 1, upc_threads));
  const std::size_t per_master =
      kElements / static_cast<std::size_t>(upc_threads);
  ctx.set_config("elements", std::to_string(kElements));
  ctx.report("gbytes_per_s",
             stream::hybrid_triad(rt, per_master, subs, core::SubModel::openmp)
                 .gbytes_per_s,
             "GB/s");
}

PERF_BENCHMARK("stream.hybrid.u8s0") { run_hybrid(ctx, 8, 0); }
PERF_BENCHMARK("stream.hybrid.u1s8") { run_hybrid(ctx, 1, 8); }
PERF_BENCHMARK("stream.hybrid.u2s4") { run_hybrid(ctx, 2, 4); }
PERF_BENCHMARK("stream.hybrid.u4s2") { run_hybrid(ctx, 4, 2); }

struct Row {
  const char* variant;
  const char* config;
  const char* id;
  const char* paper;
};
// The OpenMP-only run is placement-equivalent to 8 bound threads, so the
// UPC and OpenMP rows read the same cell.
constexpr Row kRows[] = {
    {"UPC", "8", "stream.hybrid.u8s0", "24.5"},
    {"OpenMP", "8", "stream.hybrid.u8s0", "23.7"},
    {"UPC*OpenMP", "1*8", "stream.hybrid.u1s8", "13.9"},
    {"UPC*OpenMP", "2*4", "stream.hybrid.u2s4", "24.7"},
    {"UPC*OpenMP", "4*2", "stream.hybrid.u4s2", "24.7"},
};

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  util::Table table({"Variant", "Config (UPC*OpenMP)", "Throughput (GB/s)",
                     "Paper (GB/s)"});
  for (const Row& row : kRows) {
    const auto* r = bench::find_result(results, row.id);
    if (r == nullptr) continue;
    table.add_row({row.variant, row.config,
                   util::Table::num(r->median("gbytes_per_s"), 1), row.paper});
  }
  table.print(os);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("bench_table_4_1_stream_hybrid", argc, argv,
                         "Table 4.1 — STREAM triad, hybrid placement",
                         "UPC 24.5 | OpenMP 23.7 | 1x8 = 13.9 | 2x4 = 24.7 | "
                         "4x2 = 24.7 (GB/s)",
                         report);
}
