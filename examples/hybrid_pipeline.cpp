// Hierarchical execution pipeline — the Chapter 4 model in miniature.
//
// Each UPC master owns a slice of a distributed dataset; per round it
// (a) fans the compute out to its sub-thread pool (dynamic schedule — the
// work items are deliberately imbalanced), then (b) funnels one reduction
// value to rank 0 through the global address space. Demonstrates
// sub-threads reading shared data directly — the PGAS-over-threads
// convenience MPI+OpenMP lacks — under a chosen thread-safety level.
//
//   ./hybrid_pipeline [--threads 4] [--nodes 2] [--subs 4] [--rounds 3]
#include <cstdio>
#include <vector>

#include "core/core.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace hupc;  // NOLINT

namespace {

int run(const util::Cli& cli) {
  const int threads = cli.get_int_in<int>("threads", 4);
  const int nodes = cli.get_int_in<int>("nodes", 2);
  const int subs = cli.get_int_in<int>("subs", 4);
  const int rounds = cli.get_int_in<int>("rounds", 3);
  cli.reject_unread("hybrid_pipeline");
  const std::size_t items_per_rank = 64;

  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("lehman", nodes, threads));

  // Distributed dataset: each rank's slice holds "work sizes"; results
  // gather into rank 0's inbox, one slot per (round, rank).
  auto work = rt.heap().all_alloc<double>(
      items_per_rank * static_cast<std::size_t>(threads), items_per_rank);
  auto inbox = rt.heap().alloc<double>(
      0, static_cast<std::size_t>(rounds) * static_cast<std::size_t>(threads));

  util::Xoshiro256ss rng(7);
  for (std::size_t i = 0; i < work.size(); ++i) {
    *work.at(i).raw = 0.5 + 4.5 * rng.uniform();  // imbalanced item costs (us)
  }

  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    core::SubPool pool(t, subs, core::SubModel::openmp,
                       core::ThreadSafety::serialized);
    const double* slice = work.slice(t.rank());
    for (int round = 0; round < rounds; ++round) {
      double partial = 0.0;
      // Fan out: dynamic schedule soaks up the imbalance.
      co_await pool.parallel_for(
          items_per_rank, core::Schedule::dynamic,
          [&partial, slice](core::SubContext& c, std::size_t lo,
                            std::size_t hi) -> sim::Task<void> {
            double local = 0.0;
            double cost_us = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
              local += slice[i] * slice[i];
              cost_us += slice[i];
            }
            co_await c.compute(cost_us * 1e-6);
            partial += local;  // single-threaded simulator: no race
          },
          /*chunk=*/4);
      // Funnel: the master deposits the round result into rank 0's inbox.
      gas::GlobalPtr<double> slot =
          inbox + (round * t.threads() + t.rank());
      co_await t.put(slot, partial);
      co_await t.barrier();
      if (t.rank() == 0) {
        double total = 0.0;
        for (int r = 0; r < t.threads(); ++r) {
          total += inbox.raw[round * t.threads() + r];
        }
        std::printf("round %d: global sum of squares = %.4f (t = %.1f us)\n",
                    round, total, sim::to_micros(rt.engine().now()));
      }
      co_await t.barrier();
    }
  });
  rt.run_to_completion();

  std::printf("done in %.3f ms virtual time (%d masters x %d subs)\n",
              sim::to_seconds(engine.now()) * 1e3, threads, subs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("hybrid_pipeline", argc, argv, run);
}
