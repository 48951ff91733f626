// Reproduces Fig 4.2: "Multi-link Network Microbenchmark Performance" on
// two QDR-InfiniBand nodes (Lehman).
//   (a) round-trip latency vs message size, 1-8 link-pairs, process-based
//       vs pthread-based (shared-connection) endpoints;
//   (b) unidirectional flood bandwidth vs message size, same configs.
//
// Paper shape: >=2 links lift flood bandwidth from ~1.5 GB/s (one flow's
// cap) toward ~2.4 GB/s (NIC); latency grows with link count once messages
// are bandwidth-bound; pthread links serialize injection (higher latency,
// slightly lower small/mid-size throughput) because they share one
// connection per node.
//
// Harnessed under src/perf: one cell per table column,
// `multilink.<proc|pthr>.l<links>`, reporting one modeled metric per table
// and message size ("latency.<bytes>B", "flood.<bytes>B"); every tier runs
// the whole figure.
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/network.hpp"

namespace {

using namespace hupc;  // NOLINT

/// Median round-trip latency (us) of `links` concurrent ping-pongs.
double latency_us(net::ConnectionMode mode, int links, double bytes,
                  int round_trips) {
  sim::Engine engine;
  const auto machine = topo::lehman(2);
  net::Network nw(engine, machine, net::ib_qdr(), mode, 8);
  std::vector<sim::Time> elapsed(static_cast<std::size_t>(links));
  for (int link = 0; link < links; ++link) {
    sim::spawn(engine, [](sim::Engine& eng, net::Network& n, int ep, double b,
                          int reps, sim::Time& out) -> sim::Task<void> {
      const sim::Time start = eng.now();
      for (int i = 0; i < reps; ++i) {
        co_await n.rma(
            {.src_node = 0, .src_ep = ep, .dst_node = 1, .bytes = b});
        co_await n.rma(
            {.src_node = 1, .src_ep = ep, .dst_node = 0, .bytes = b});
      }
      out = eng.now() - start;
    }(engine, nw, link, bytes, round_trips, elapsed[static_cast<std::size_t>(link)]));
  }
  engine.run();
  sim::Time total = 0;
  for (sim::Time t : elapsed) total += t;
  return sim::to_micros(total) /
         (static_cast<double>(links) * round_trips * 2.0);
}

/// Aggregate flood bandwidth (MB/s) with `links` senders streaming
/// `messages` back-to-back non-blocking messages each.
double flood_mbs(net::ConnectionMode mode, int links, double bytes,
                 int messages) {
  sim::Engine engine;
  const auto machine = topo::lehman(2);
  net::Network nw(engine, machine, net::ib_qdr(), mode, 8);
  for (int link = 0; link < links; ++link) {
    sim::spawn(engine, [](sim::Engine& eng, net::Network& n, int ep, double b,
                          int count) -> sim::Task<void> {
      std::vector<async::future<>> inflight;
      inflight.reserve(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        inflight.push_back(sim::spawn(eng, n.rma({.src_node = 0, .src_ep = ep,
                                                  .dst_node = 1, .bytes = b})));
      }
      for (auto& f : inflight) co_await f.wait();
    }(engine, nw, link, bytes, messages));
  }
  engine.run();
  const double total_bytes = bytes * links * messages;
  return total_bytes / sim::to_seconds(engine.now()) / 1e6;
}

constexpr int kRoundTrips = 20;
constexpr double kLatencySizes[] = {1.0,    8.0,    64.0,    512.0,
                                    1024.0, 4096.0, 16384.0, 32768.0};
constexpr double kFloodSizes[] = {64.0,     512.0,    4096.0,   32768.0,
                                  131072.0, 524288.0, 2097152.0};

/// One table column: `links` concurrent link-pairs of one endpoint kind.
struct Column {
  net::ConnectionMode mode;
  int links;
};
constexpr auto kProc = net::ConnectionMode::per_process;
constexpr auto kPthr = net::ConnectionMode::per_node;
constexpr Column kColumns[] = {{kProc, 1}, {kProc, 2}, {kProc, 4}, {kProc, 8},
                               {kPthr, 2}, {kPthr, 4}, {kPthr, 8}};

std::string cell_id(const Column& c) {
  return std::string("multilink.") + (c.mode == kProc ? "proc.l" : "pthr.l") +
         std::to_string(c.links);
}

std::string size_metric(const char* kind, double size) {
  return std::string(kind) + "." + util::Table::num(size, 0) + "B";
}

void register_cells() {
  for (const Column& c : kColumns) {
    perf::Registry::instance().add(
        {.id = cell_id(c), .fn = [c](perf::Context& ctx) {
           ctx.set_config("round_trips", std::to_string(kRoundTrips));
           for (const double size : kLatencySizes) {
             ctx.report(size_metric("latency", size),
                        latency_us(c.mode, c.links, size, kRoundTrips), "us",
                        perf::Direction::lower_is_better);
           }
           for (const double size : kFloodSizes) {
             const int messages = size >= 131072.0 ? 20 : 100;
             ctx.report(size_metric("flood", size),
                        flood_mbs(c.mode, c.links, size, messages), "MB/s");
           }
         }});
  }
}

void print_table(std::ostream& os, const std::vector<perf::Result>& results,
                 const char* kind, std::span<const double> sizes,
                 int precision) {
  std::vector<const perf::Result*> cells;
  for (const Column& c : kColumns) {
    cells.push_back(bench::find_result(results, cell_id(c)));
    if (cells.back() == nullptr) return;
  }
  util::Table table({"Size (B)", "1 link", "2 proc", "4 proc", "8 proc",
                     "2 pthr", "4 pthr", "8 pthr"});
  for (const double size : sizes) {
    std::vector<std::string> row{util::Table::num(size, 0)};
    for (const perf::Result* r : cells) {
      row.push_back(
          util::Table::num(r->median(size_metric(kind, size)), precision));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  os << "\n(a) Latency (us; ping-pong round trip / 2, the usual "
        "convention)\n";
  print_table(os, results, "latency", kLatencySizes, 1);
  os << "\n(b) Unidirectional flood bandwidth (MB/s)\n";
  print_table(os, results, "flood", kFloodSizes, 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  register_cells();
  return bench::run_main(
      "bench_fig_4_2_multilink", argc, argv,
      "Fig 4.2 — multi-link latency and flood bandwidth (QDR IB)",
      "1 link ~1.5 GB/s; multi-link ~2.4 GB/s; pthread links serialize "
      "injection",
      report);
}
