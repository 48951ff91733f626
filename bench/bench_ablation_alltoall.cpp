// Ablation: flat pairwise vs hierarchical node-aware all-to-all in the
// message layer, across per-pair sizes — locating the crossover that
// justifies the tuned collective's aggregation strategy.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mpl/mpi.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

namespace {

using namespace hupc;  // NOLINT

double run_alltoall(int threads, int nodes, std::size_t bytes_per_pair,
                    bool hierarchical) {
  sim::Engine engine;
  gas::Runtime rt(engine, bench::make_config("lehman", nodes, threads));
  mpl::Mpi mpi(rt);
  rt.spmd([&mpi, bytes_per_pair, hierarchical](gas::Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (hierarchical) {
      co_await mpi.alltoall(t, nullptr, nullptr, bytes_per_pair);
    } else {
      // Modeled flat exchange: the UPC-style p2p pattern.
      std::vector<async::future<>> pending;
      for (int step = 1; step < t.threads(); ++step) {
        const int peer = (t.rank() + step) % t.threads();
        pending.push_back(
            t.launch_async(t.copy_raw(peer, nullptr, nullptr, bytes_per_pair)));
      }
      for (auto& f : pending) co_await f.wait();
      co_await t.barrier();
    }
  });
  rt.run_to_completion();
  return sim::to_seconds(engine.now());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int threads = static_cast<int>(cli.get_int("threads", 32));
  const int nodes = static_cast<int>(cli.get_int("nodes", 8));
  cli.reject_unread(argv[0]);

  bench::banner("Ablation — flat vs hierarchical all-to-all",
                "aggregation wins at small message sizes (fewer injections, "
                "latencies), flat wins once wire time dominates");

  util::Table table({"Bytes/pair", "Flat p2p (ms)", "Hierarchical (ms)",
                     "Hier/flat"});
  for (std::size_t bytes : {64u, 512u, 4096u, 32768u, 262144u, 1048576u}) {
    const double flat = run_alltoall(threads, nodes, bytes, false);
    const double hier = run_alltoall(threads, nodes, bytes, true);
    table.add_row({std::to_string(bytes), util::Table::num(flat * 1e3, 2),
                   util::Table::num(hier * 1e3, 2),
                   util::Table::num(hier / flat, 2)});
  }
  table.print(std::cout);
  std::printf("\n(%d threads over %d nodes, QDR InfiniBand)\n", threads, nodes);
  return 0;
}
