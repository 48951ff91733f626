// Placement of execution contexts onto hardware thread slots.
//
// UPC language threads are distributed blockwise across nodes (the layout
// the paper's thread configurations "total/per-node" imply) and bound
// within a node cyclic-by-socket: numactl-style round-robin over sockets,
// the paper's default for independent UPC processes (§4.3.2).
//
// SlotAllocator additionally hands out slots for dynamically spawned
// sub-threads near their master (same socket first: the paper binds
// sub-threads to the master's affinity mask) and tracks per-core occupancy
// so the compute model can apply SMT / oversubscription factors.
#pragma once

#include <vector>

#include "topo/machine.hpp"

namespace hupc::topo {

/// Map `nranks` ranks onto the machine: ranks are distributed blockwise over
/// nodes (ceil(nranks/nodes) per node, earlier nodes filled first), then
/// bound cyclic-by-socket within the node. nranks may exceed hardware
/// threads; slots then wrap (oversubscription), mirroring real
/// oversubscribed runs.
[[nodiscard]] std::vector<HwLoc> place_ranks(const MachineSpec& machine,
                                             int nranks);

/// Tracks how many bound contexts occupy each hardware thread slot.
class SlotAllocator {
 public:
  explicit SlotAllocator(const MachineSpec& machine);

  /// Bind a context to a specific slot (used for placed UPC ranks).
  void bind(const HwLoc& loc);
  void unbind(const HwLoc& loc);

  /// Allocate the least-loaded slot on the given socket for a sub-thread,
  /// preferring empty cores over SMT siblings over oversubscription; ties
  /// break toward lower core/smt indices (deterministic).
  [[nodiscard]] HwLoc allocate_near(const HwLoc& master);

  /// Occupancy queries used by the compute-cost model.
  [[nodiscard]] int contexts_on_slot(const HwLoc& loc) const;
  [[nodiscard]] int contexts_on_core(const HwLoc& loc) const;
  [[nodiscard]] int contexts_on_socket(int node, int socket) const;

  /// Single-thread-relative speed of a context bound at `loc`:
  ///   1.0 alone on its core; smt_throughput/k with k SMT-sharing contexts;
  ///   divided further by slot oversubscription.
  [[nodiscard]] double speed_factor(const HwLoc& loc) const;

  [[nodiscard]] const MachineSpec& machine() const noexcept { return machine_; }

 private:
  [[nodiscard]] std::size_t index(const HwLoc& loc) const;

  MachineSpec machine_;
  std::vector<int> occupancy_;  // flat [node][socket][core][smt]
};

}  // namespace hupc::topo
