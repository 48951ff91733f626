#include "topo/machine.hpp"

#include "util/names.hpp"

namespace hupc::topo {

MachineSpec lehman(int nodes) {
  MachineSpec m;
  m.name = "lehman";
  m.nodes = nodes;
  m.sockets_per_node = 2;
  m.cores_per_socket = 4;
  m.smt_per_core = 2;  // Nehalem Hyper-Threading
  m.clock_ghz = 2.27;
  m.flops_per_cycle = 4.0;  // 128-bit SSE: 2 DP mul + 2 DP add per cycle
  m.cache = CacheSpec{32 * 1024, 256 * 1024, 8 * 1024 * 1024};
  // Calibrated to Tables 3.1/4.1: full-node STREAM triad ~24.5 GB/s.
  m.socket_mem_bw = 12.4e9;
  m.interconnect_bw = 11.5e9;  // QPI ~23 GB/s bidirectional
  m.numa_penalty = 1.3;        // thesis §2.1: remote 15-40% slower
  m.smt_throughput = 1.22;     // Fig 4.4: SMT gains 5-30% on kernels
  return m;
}

MachineSpec pyramid(int nodes) {
  MachineSpec m;
  m.name = "pyramid";
  m.nodes = nodes;
  m.sockets_per_node = 2;
  m.cores_per_socket = 4;
  m.smt_per_core = 1;  // Barcelona: no SMT
  m.clock_ghz = 2.2;
  m.flops_per_cycle = 4.0;
  m.cache = CacheSpec{64 * 1024, 512 * 1024, 2 * 1024 * 1024};
  m.socket_mem_bw = 8.0e9;  // DDR2-667 dual channel per socket
  m.interconnect_bw = 3.2e9;  // HyperTransport 6.4 GB/s bidirectional
  m.numa_penalty = 1.35;
  m.smt_throughput = 1.0;
  return m;
}

MachinePreset machine_preset(std::string_view name, int nodes) {
  struct Entry {
    std::string_view name;
    MachineSpec (*build)(int);
    const char* conduit;
  };
  static constexpr Entry kPresets[] = {{"lehman", lehman, "ib-qdr"},
                                       {"pyramid", pyramid, "ib-ddr"}};
  const Entry& e = util::lookup(kPresets, "machine preset", name);
  return {e.build(nodes), e.conduit};
}

MachineSpec toy(int nodes) {
  MachineSpec m;
  m.name = "toy";
  m.nodes = nodes;
  m.sockets_per_node = 1;
  m.cores_per_socket = 2;
  m.smt_per_core = 1;
  m.clock_ghz = 1.0;
  m.flops_per_cycle = 1.0;
  m.cache = CacheSpec{32 * 1024, 256 * 1024, 4 * 1024 * 1024};
  m.socket_mem_bw = 10e9;
  m.interconnect_bw = 5e9;
  m.numa_penalty = 1.5;
  m.smt_throughput = 1.0;
  return m;
}

}  // namespace hupc::topo
