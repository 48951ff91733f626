// A deliberately tiny machine for unit tests: `nodes` x 1 socket x 2 cores,
// no SMT, 1 GHz and 1 flop/cycle, so expected times are easy to compute.
#pragma once

#include "topo/machine.hpp"

namespace hupc::test {

inline topo::MachineSpec toy_machine(int nodes) {
  topo::MachineSpec m;
  m.name = "toy";
  m.nodes = nodes;
  m.sockets_per_node = 1;
  m.cores_per_socket = 2;
  m.smt_per_core = 1;
  m.clock_ghz = 1.0;
  m.flops_per_cycle = 1.0;
  m.cache = topo::CacheSpec{32 * 1024, 256 * 1024, 4 * 1024 * 1024};
  m.socket_mem_bw = 10e9;
  m.interconnect_bw = 5e9;
  m.numa_penalty = 1.5;
  m.smt_throughput = 1.0;
  return m;
}

}  // namespace hupc::test
