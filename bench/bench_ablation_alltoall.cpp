// Ablation: flat pairwise vs hierarchical node-aware all-to-all in the
// message layer, across per-pair sizes — locating the crossover that
// justifies the tuned collective's aggregation strategy.
//
// Harnessed under src/perf: one cell per (pattern, size),
// `alltoall.ablation.<flat|hier>.<bytes>B`, on 32 threads over 8 Lehman
// nodes in every tier.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mpl/mpi.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kThreads = 32;
constexpr int kNodes = 8;
constexpr std::size_t kSizes[] = {64, 512, 4096, 32768, 262144, 1048576};

double run_alltoall(std::size_t bytes_per_pair, bool hierarchical) {
  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("lehman", kNodes, kThreads));
  mpl::Mpi mpi(rt);
  rt.spmd([&mpi, bytes_per_pair,
           hierarchical](gas::Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (hierarchical) {
      co_await mpi.alltoall(t, nullptr, nullptr, bytes_per_pair);
    } else {
      // Modeled flat exchange: the UPC-style p2p pattern.
      co_await bench::exchange_async(t, bytes_per_pair);
      co_await t.barrier();
    }
  });
  rt.run_to_completion();
  return sim::to_seconds(engine.now());
}

std::string cell_id(bool hierarchical, std::size_t bytes) {
  return std::string("alltoall.ablation.") +
         (hierarchical ? "hier." : "flat.") + std::to_string(bytes) + "B";
}

void register_cells() {
  for (const std::size_t bytes : kSizes) {
    for (const bool hierarchical : {false, true}) {
      perf::Registry::instance().add(
          {.id = cell_id(hierarchical, bytes),
           .fn = [bytes, hierarchical](perf::Context& ctx) {
             ctx.set_config("machine", "lehman");
             ctx.set_config("threads", std::to_string(kThreads));
             ctx.set_config("nodes", std::to_string(kNodes));
             ctx.report("seconds", run_alltoall(bytes, hierarchical), "s",
                        perf::Direction::lower_is_better);
           }});
    }
  }
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  util::Table table({"Bytes/pair", "Flat p2p (ms)", "Hierarchical (ms)",
                     "Hier/flat"});
  for (const std::size_t bytes : kSizes) {
    const auto* flat = bench::find_result(results, cell_id(false, bytes));
    const auto* hier = bench::find_result(results, cell_id(true, bytes));
    if (flat == nullptr || hier == nullptr) continue;
    const double f = flat->median("seconds");
    const double h = hier->median("seconds");
    table.add_row({std::to_string(bytes), util::Table::num(f * 1e3, 2),
                   util::Table::num(h * 1e3, 2), util::Table::num(h / f, 2)});
  }
  table.print(os);
  os << "\n(" << kThreads << " threads over " << kNodes
     << " nodes, QDR InfiniBand)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  register_cells();
  return bench::run_main("bench_ablation_alltoall", argc, argv,
                         "Ablation — flat vs hierarchical all-to-all",
                         "aggregation wins at small message sizes (fewer "
                         "injections, latencies), flat wins once wire time "
                         "dominates",
                         report);
}
