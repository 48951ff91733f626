// RandomAccess (GUPS) under thread groups — the second application class
// the thesis assigns to the thread-group approach (§4.4). Not a paper
// figure (the thesis names it without measurements); this bench supplies
// the numbers: naive fine-grained remote AMOs vs supernode-privatized +
// bucketed updates, across node counts and both networks.
//
// Harnessed under src/perf: `gups.groups.<conduit>.t<T>n<N>.<variant>`
// per point; the two largest scales (64/8, 128/16) are full-tier only.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "stream/random_access.hpp"
#include "trace/counters.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr std::pair<int, int> kScales[] = {{16, 2}, {32, 4}, {64, 8}, {128, 16}};
const char* const kConduits[] = {"ib-ddr", "gige"};
constexpr int kLog2Table = 16;

void run_point(perf::Context& ctx, const std::string& conduit, int threads,
               int nodes, stream::GupsVariant variant) {
  const std::uint64_t updates = ctx.smoke() ? 2048 : 8192;
  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("pyramid", nodes, threads,
                                             gas::Backend::processes, conduit));
  stream::RandomAccess ra(rt, kLog2Table);
  const auto r = ra.run(variant, updates);

  ctx.set_config("machine", "pyramid");
  ctx.set_config("conduit", conduit);
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(threads));
  ctx.set_config("nodes", std::to_string(nodes));
  ctx.set_config("log2_table", std::to_string(kLog2Table));
  ctx.set_config("updates", std::to_string(updates));
  ctx.report("gups", r.gups, "GUPS");
  ctx.report("local_fraction",
             static_cast<double>(r.local) / static_cast<double>(r.updates),
             "fraction");
  ctx.report_trace_counters(engine.counters(), {"net.msg", "net.bytes"});
}

std::string point_id(const std::string& conduit, int threads, int nodes,
                     bool grouped) {
  return "gups.groups." + conduit + ".t" + std::to_string(threads) + "n" +
         std::to_string(nodes) + (grouped ? ".grouped" : ".naive");
}

void register_benchmarks() {
  for (const char* const conduit : kConduits) {
    for (const auto& [threads, nodes] : kScales) {
      for (const bool grouped : {false, true}) {
        perf::Registry::instance().add(
            {.id = point_id(conduit, threads, nodes, grouped),
             .fn = [conduit = std::string(conduit), threads = threads,
                    nodes = nodes, grouped](perf::Context& ctx) {
               run_point(ctx, conduit, threads, nodes,
                         grouped ? stream::GupsVariant::grouped
                                 : stream::GupsVariant::naive);
             },
             .in_smoke = threads <= 32});
      }
    }
  }
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  for (const char* const conduit : kConduits) {
    util::Table table({"Threads/Nodes", "Naive (MUP/s)", "Grouped (MUP/s)",
                       "Gain", "Local updates"});
    for (const auto& [threads, nodes] : kScales) {
      const auto* naive =
          bench::find_result(results, point_id(conduit, threads, nodes, false));
      const auto* grouped =
          bench::find_result(results, point_id(conduit, threads, nodes, true));
      if (naive == nullptr || grouped == nullptr) continue;
      const double n = naive->median("gups");
      const double g = grouped->median("gups");
      char label[32];
      std::snprintf(label, sizeof label, "%d/%d", threads, nodes);
      table.add_row({label, util::Table::num(n * 1e3, 1),
                     util::Table::num(g * 1e3, 1),
                     util::Table::num(g / n, 1) + "x",
                     util::Table::pct(grouped->median("local_fraction"), 1)});
    }
    if (table.rows() == 0) continue;
    os << "\n--- Network: " << conduit << " ---\n";
    table.print(os);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  return bench::run_main("bench_gups_groups", argc, argv,
                         "RandomAccess (GUPS) with thread groups",
                         "thesis §4.4 names Random Access as a thread-group "
                         "application; bucketed supernode updates vs naive "
                         "AMOs",
                         report);
}
