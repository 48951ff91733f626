// Calibration self-check: measures every model endpoint DESIGN.md §6 fits
// a constant against, in one place. If a refactor drifts a cost model,
// this bench shows which knob moved.
//
// Harnessed under src/perf: one cell per endpoint, `calibration.<endpoint>`,
// each a modeled metric, so bench_compare gates its drift. The printed
// targets are the paper's; no range is asserted (the STREAM endpoint models
// 24.8 GB/s on purpose, DESIGN.md §6).
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/network.hpp"
#include "stream/stream.hpp"

namespace {

using namespace hupc;  // NOLINT

/// Aggregate QDR rate (GB/s) of `flows` concurrent 1 GB transfers from
/// distinct endpoints of one node.
double qdr_flows_gbs(int flows) {
  sim::Engine e;
  const auto m = topo::lehman(2);
  net::Network nw(e, m, net::ib_qdr(), net::ConnectionMode::per_process, 8);
  for (int ep = 0; ep < flows; ++ep) {
    sim::spawn(e, [](net::Network& n, int endpoint) -> sim::Task<void> {
      co_await n.rma(
          {.src_node = 0, .src_ep = endpoint, .dst_node = 1, .bytes = 1e9});
    }(nw, ep));
  }
  e.run();
  return flows / sim::to_seconds(e.now());
}

PERF_BENCHMARK("calibration.stream_triad") {
  sim::Engine e;
  gas::Runtime rt(e, gas::preset_config("lehman", 1, 8));
  ctx.report("value",
             stream::hybrid_triad(rt, 4 << 20, 0, core::SubModel::openmp)
                 .gbytes_per_s,
             "GB/s");
}

PERF_BENCHMARK("calibration.qdr_single_flow") {
  ctx.report("value", qdr_flows_gbs(1), "GB/s");
}

PERF_BENCHMARK("calibration.qdr_nic_aggregate") {
  ctx.report("value", qdr_flows_gbs(4), "GB/s");
}

PERF_BENCHMARK("calibration.qdr_rtt_8b") {
  sim::Engine e;
  const auto m = topo::lehman(2);
  net::Network nw(e, m, net::ib_qdr(), net::ConnectionMode::per_process, 8);
  sim::spawn(e, [](net::Network& n) -> sim::Task<void> {
    co_await n.rma({.src_node = 0, .src_ep = 0, .dst_node = 1, .bytes = 8});
    co_await n.rma({.src_node = 1, .src_ep = 0, .dst_node = 0, .bytes = 8});
  }(nw));
  e.run();
  ctx.report("value", sim::to_micros(e.now()), "us",
             perf::Direction::lower_is_better);
}

PERF_BENCHMARK("calibration.translation_slowdown") {
  // 8 threads, as in Table 3.1: the memory share per thread sets the
  // privatized baseline the translation overhead is compared against.
  auto run = [](bool privatized) {
    sim::Engine e;
    gas::Runtime rt(e, gas::preset_config("lehman", 1, 8));
    rt.spmd([privatized](gas::Thread& t) -> sim::Task<void> {
      co_await t.shared_loop(t.rank() ^ 1, 1 << 20, 24.0, privatized);
    });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  ctx.report("value", run(false) / run(true), "x",
             perf::Direction::lower_is_better);
}

PERF_BENCHMARK("calibration.numa_penalty") {
  auto run = [](int socket) {
    sim::Engine e;
    mem::MemorySystem ms(e, topo::lehman(1));
    sim::spawn(e, [](mem::MemorySystem& mem, int s) -> sim::Task<void> {
      co_await mem.access(topo::HwLoc{0, s, 0, 0}, topo::HwLoc{0, 0, 0, 0},
                          100000, 8.0);
    }(ms, socket));
    e.run();
    return sim::to_seconds(e.now());
  };
  ctx.report("value", run(1) / run(0), "x", perf::Direction::lower_is_better);
}

struct Row {
  const char* id;
  const char* label;
  int precision;
  const char* target;
};
constexpr Row kRows[] = {
    {"calibration.stream_triad", "Lehman node STREAM triad (GB/s)", 1,
     "23.4 - 24.5"},
    {"calibration.qdr_single_flow", "QDR single-flow rate (GB/s)", 2,
     "~1.5 (Fig 4.2b)"},
    {"calibration.qdr_nic_aggregate", "QDR NIC aggregate (GB/s)", 2,
     "~2.4 (Fig 4.2b)"},
    {"calibration.qdr_rtt_8b", "QDR 8 B round trip (us)", 1,
     "2 - 4 (Fig 4.2a)"},
    {"calibration.translation_slowdown",
     "Shared-pointer translation slowdown (x)", 1, "~7 (Table 3.1: 23.2/3.2)"},
    {"calibration.numa_penalty", "NUMA remote-access penalty (x)", 2,
     "1.15 - 1.40 (thesis 2.1)"},
};

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  util::Table table({"Endpoint", "Measured", "Target (paper)"});
  for (const Row& row : kRows) {
    const auto* r = bench::find_result(results, row.id);
    if (r == nullptr) continue;
    table.add_row({row.label,
                   util::Table::num(r->median("value"), row.precision),
                   row.target});
  }
  table.print(os);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("bench_calibration", argc, argv,
                         "Calibration self-check",
                         "every DESIGN.md §6 endpoint, measured from the live "
                         "model",
                         report);
}
