// Topology tour: prints the machine presets, a thread placement, the teams
// derived from it, castability domains under each backend, and the
// sub-thread slots a hybrid configuration would occupy — the "hardware
// topology exposed to the application" story of thesis §3.2.
//
//   ./topology_tour [--machine lehman|pyramid] [--nodes 2] [--threads 8]
#include <cstdio>

#include "core/core.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

using namespace hupc;  // NOLINT

namespace {

void describe(const topo::MachineSpec& m) {
  std::printf("machine '%s': %d nodes x %d sockets x %d cores x %d SMT = %d "
              "hardware threads\n",
              m.name.c_str(), m.nodes, m.sockets_per_node, m.cores_per_socket,
              m.smt_per_core, m.total_hwthreads());
  std::printf("  core: %.2f GHz x %.0f flops/cycle = %.1f GF/s peak; node "
              "peak %.1f GF/s\n",
              m.clock_ghz, m.flops_per_cycle, m.core_flops() / 1e9,
              m.core_flops() * m.cores_per_node() / 1e9);
  std::printf("  caches: L1d %zu KiB, L2 %zu KiB/core, L3 %zu MiB/socket\n",
              m.cache.l1d_per_core / 1024, m.cache.l2_per_core / 1024,
              m.cache.l3_per_socket / (1024 * 1024));
  std::printf("  memory: %.1f GB/s/socket, interconnect %.1f GB/s/dir, NUMA "
              "penalty %.2fx, SMT throughput %.2fx\n\n",
              m.socket_mem_bw / 1e9, m.interconnect_bw / 1e9, m.numa_penalty,
              m.smt_throughput);
}

int run(const util::Cli& cli) {
  const std::string name = cli.get("machine", "lehman");
  const int nodes = cli.get_int_in<int>("nodes", 2);
  const int threads = cli.get_int_in<int>("threads", 8);
  cli.reject_unread("topology_tour");

  const gas::Config config = gas::preset_config(name, nodes, threads);
  describe(config.machine);

  sim::Engine engine;
  gas::Runtime rt(engine, config);

  std::printf("placement of %d UPC threads (cyclic-by-socket):\n", threads);
  for (int r = 0; r < threads; ++r) {
    const auto loc = rt.loc_of(r);
    std::printf("  rank %2d -> node %d socket %d core %d smt %d\n", r, loc.node,
                loc.socket, loc.core, loc.smt);
  }

  std::printf("\nnode teams:\n");
  for (const auto& team : core::Team::all_node_teams(rt)) {
    std::printf("  node team:");
    for (int r : team.members()) std::printf(" %d", r);
    std::printf("\n");
  }
  std::printf("socket teams on node 0:\n");
  for (int s = 0; s < config.machine.sockets_per_node; ++s) {
    const auto team = core::Team::socket_team(rt, 0, s);
    std::printf("  socket %d:", s);
    for (int r : team.members()) std::printf(" %d", r);
    std::printf("\n");
  }

  std::printf("\ncastability from rank 0 (PSHM on): ");
  for (int r = 0; r < threads; ++r) {
    std::printf("%d:%s ", r, rt.same_supernode(0, r) ? "yes" : "no");
  }
  std::printf("\n\nsub-thread slots for a 4-wide pool under rank 0:\n");
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      core::SubPool pool(t, 4);
      for (int i = 0; i < pool.width(); ++i) {
        const auto loc = pool.context(i).loc();
        std::printf("  sub %d -> node %d socket %d core %d smt %d%s\n", i,
                    loc.node, loc.socket, loc.core, loc.smt,
                    i == 0 ? "  (master's own slot)" : "");
      }
    }
    co_return;
  });
  rt.run_to_completion();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("topology_tour", argc, argv, run);
}
