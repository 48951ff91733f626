// Reproduces Table 3.1: "Performance of the Twisted STREAM Triad".
//
// 8 threads on one dual-socket Nehalem node (Lehman), odd/even-exchange
// access pattern. Paper values (GB/s): UPC baseline 3.2, UPC with
// re-localization 7.2, UPC with cast 23.2, OpenMP baseline 23.4.
//
// Harnessed under src/perf: one cell per variant,
// `stream.twisted.<variant>`, on 8M-element arrays in every tier.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stream/stream.hpp"

namespace {

using namespace hupc;  // NOLINT

void run_twisted(perf::Context& ctx, stream::TriadVariant variant) {
  constexpr std::size_t kElements = 8 << 20;
  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("lehman", 1, 8));
  ctx.set_config("elements", std::to_string(kElements));
  ctx.report("gbytes_per_s",
             stream::twisted_triad(rt, kElements, variant).gbytes_per_s,
             "GB/s");
}

PERF_BENCHMARK("stream.twisted.baseline") {
  run_twisted(ctx, stream::TriadVariant::upc_baseline);
}
PERF_BENCHMARK("stream.twisted.relocalize") {
  run_twisted(ctx, stream::TriadVariant::upc_relocalize);
}
PERF_BENCHMARK("stream.twisted.cast") {
  run_twisted(ctx, stream::TriadVariant::upc_cast);
}
PERF_BENCHMARK("stream.twisted.openmp") {
  run_twisted(ctx, stream::TriadVariant::openmp);
}

struct Row {
  const char* id;
  const char* name;
  const char* paper;
};
constexpr Row kRows[] = {
    {"stream.twisted.baseline", "UPC baseline", "3.2"},
    {"stream.twisted.relocalize", "UPC with re-localization", "7.2"},
    {"stream.twisted.cast", "UPC with cast", "23.2"},
    {"stream.twisted.openmp", "OpenMP baseline", "23.4"},
};

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  util::Table table({"Variant", "Throughput (GB/s)", "Paper (GB/s)"});
  for (const Row& row : kRows) {
    const auto* r = bench::find_result(results, row.id);
    if (r == nullptr) continue;
    table.add_row(
        {row.name, util::Table::num(r->median("gbytes_per_s"), 1), row.paper});
  }
  table.print(os);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("bench_table_3_1_stream_twisted", argc, argv,
                         "Table 3.1 — twisted STREAM triad",
                         "UPC baseline 3.2 | re-localization 7.2 | cast 23.2 "
                         "| OpenMP 23.4 (GB/s, 8 threads, 2x4-core Nehalem)",
                         report);
}
