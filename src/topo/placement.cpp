#include "topo/placement.hpp"

#include <algorithm>
#include <cassert>

namespace hupc::topo {

std::vector<HwLoc> place_ranks(const MachineSpec& machine, int nranks) {
  assert(nranks >= 1);
  std::vector<HwLoc> placement(static_cast<std::size_t>(nranks));
  const int per_node = (nranks + machine.nodes - 1) / machine.nodes;
  const int sockets = machine.sockets_per_node;
  const int cores = machine.cores_per_socket;
  for (int rank = 0; rank < nranks; ++rank) {
    const int node = rank / per_node;
    assert(node < machine.nodes);
    // socket0/core0, socket1/core0, socket0/core1, ... then SMT siblings;
    // slots wrap when a node holds more ranks than hardware threads.
    const int slot = (rank % per_node) % machine.hwthreads_per_node();
    placement[static_cast<std::size_t>(rank)] =
        HwLoc{node, slot % sockets, (slot / sockets) % cores,
              slot / (sockets * cores)};
  }
  return placement;
}

SlotAllocator::SlotAllocator(const MachineSpec& machine)
    : machine_(machine),
      occupancy_(static_cast<std::size_t>(machine.total_hwthreads()), 0) {}

std::size_t SlotAllocator::index(const HwLoc& loc) const {
  assert(loc.node >= 0 && loc.node < machine_.nodes);
  assert(loc.socket >= 0 && loc.socket < machine_.sockets_per_node);
  assert(loc.core >= 0 && loc.core < machine_.cores_per_socket);
  assert(loc.smt >= 0 && loc.smt < machine_.smt_per_core);
  return static_cast<std::size_t>(
      ((loc.node * machine_.sockets_per_node + loc.socket) *
           machine_.cores_per_socket +
       loc.core) *
          machine_.smt_per_core +
      loc.smt);
}

void SlotAllocator::bind(const HwLoc& loc) { ++occupancy_[index(loc)]; }

void SlotAllocator::unbind(const HwLoc& loc) {
  auto& o = occupancy_[index(loc)];
  assert(o > 0);
  --o;
}

HwLoc SlotAllocator::allocate_near(const HwLoc& master) {
  HwLoc best{};
  int best_key = -1;
  // Score: fewer contexts on slot, then fewer on core, then lower indices.
  for (int core = 0; core < machine_.cores_per_socket; ++core) {
    for (int smt = 0; smt < machine_.smt_per_core; ++smt) {
      const HwLoc cand{master.node, master.socket, core, smt};
      const int slot_load = contexts_on_slot(cand);
      const int core_load = contexts_on_core(cand);
      // Lexicographic minimization encoded as a single key (loads < 1024).
      const int key = slot_load * 1024 * 1024 + core_load * 1024 +
                      core * machine_.smt_per_core + smt;
      if (best_key < 0 || key < best_key) {
        best_key = key;
        best = cand;
      }
    }
  }
  bind(best);
  return best;
}

int SlotAllocator::contexts_on_slot(const HwLoc& loc) const {
  return occupancy_[index(loc)];
}

int SlotAllocator::contexts_on_core(const HwLoc& loc) const {
  int total = 0;
  for (int smt = 0; smt < machine_.smt_per_core; ++smt) {
    total += occupancy_[index(HwLoc{loc.node, loc.socket, loc.core, smt})];
  }
  return total;
}

int SlotAllocator::contexts_on_socket(int node, int socket) const {
  int total = 0;
  for (int core = 0; core < machine_.cores_per_socket; ++core) {
    for (int smt = 0; smt < machine_.smt_per_core; ++smt) {
      total += occupancy_[index(HwLoc{node, socket, core, smt})];
    }
  }
  return total;
}

double SlotAllocator::speed_factor(const HwLoc& loc) const {
  const int on_core = std::max(1, contexts_on_core(loc));
  if (on_core == 1) return 1.0;
  // A core with >=2 contexts delivers smt_throughput x single-thread total
  // when it has SMT (the two hardware threads co-issue), or exactly 1x when
  // it does not (plain time slicing); either way the contexts share evenly.
  const double core_total =
      machine_.smt_per_core >= 2 ? machine_.smt_throughput : 1.0;
  return core_total / static_cast<double>(on_core);
}

}  // namespace hupc::topo
