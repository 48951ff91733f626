// Quickstart: the HUPC programming model in one file.
//
// Eight simulated UPC threads on one dual-socket node: a block-cyclic
// shared array, fine-grained puts/gets, barriers, pointer privatization,
// and a team barrier — with virtual time reported at the end.
//
//   ./quickstart [--threads N] [--nodes M]
#include <cstdio>

#include "core/core.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

using namespace hupc;  // NOLINT

namespace {

int run(const util::Cli& cli) {
  const int threads = cli.get_int_in<int>("threads", 8);
  const int nodes = cli.get_int_in<int>("nodes", 1);
  cli.reject_unread("quickstart");

  // 1. Describe the machine and the runtime configuration.
  sim::Engine engine;
  gas::Config config;
  config.machine = topo::lehman(nodes);
  config.threads = threads;
  config.backend = gas::Backend::processes;
  config.pshm = true;
  gas::Runtime rt(engine, config);

  // 2. Build a distributed shared array: `shared [4] long a[threads*16]`.
  auto array = rt.heap().all_alloc<long>(
      static_cast<std::size_t>(threads) * 16, 4);

  // 3. A node team, constructed from the topology (thesis Chapter 3).
  core::Team node0 = core::Team::node_team(rt, 0);

  // 4. The SPMD kernel. Every UPC operation is awaited — each charges
  //    virtual time through the memory/network cost models.
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    // Each thread initializes the elements it owns, via privatized access.
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (array.owner_of(i) == t.rank()) {
        *array.at(i).raw = 100 * t.rank() + static_cast<long>(i);
      }
    }
    co_await t.barrier();

    // Fine-grained remote read: the classic UPC neighbour access.
    const int right = (t.rank() + 1) % t.threads();
    const long peeked =
        co_await t.get(array.at(static_cast<std::size_t>(right) * 4));
    if (t.rank() == 0) {
      std::printf("[rank 0] first element owned by rank %d = %ld\n", right,
                  peeked);
    }

    // Pointer privatization (the castability extension): direct load/store
    // into a neighbour's slice when it is shared-memory reachable.
    if (long* raw = t.cast(array.at(static_cast<std::size_t>(right) * 4));
        raw != nullptr) {
      *raw += 1;  // no translation overhead, no communication
    }

    // Team-scoped synchronization: only node 0's threads participate.
    if (node0.contains(t.rank())) {
      co_await node0.barrier(t);
    }
    co_await t.barrier();

    if (t.rank() == 0) {
      std::printf("[rank 0] all %d threads synchronized at t = %.3f us\n",
                  t.threads(), sim::to_micros(engine.now()));
    }
  });
  rt.run_to_completion();

  std::printf("done: %d threads, %llu engine events, %.3f us virtual time\n",
              threads,
              static_cast<unsigned long long>(engine.events_executed()),
              sim::to_micros(engine.now()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("quickstart", argc, argv, run);
}
