#include "mem/memory_system.hpp"

#include <cassert>

namespace hupc::mem {

MemorySystem::MemorySystem(sim::Engine& engine, const topo::MachineSpec& machine)
    : engine_(&engine), machine_(machine) {
  const int sockets = machine_.nodes * machine_.sockets_per_node;
  socket_pools_.reserve(static_cast<std::size_t>(sockets));
  for (int s = 0; s < sockets; ++s) {
    socket_pools_.push_back(
        std::make_unique<sim::FluidLink>(engine, machine_.socket_mem_bw));
  }
  // One directional link per (node, home socket).
  interconnects_.reserve(static_cast<std::size_t>(sockets));
  for (int s = 0; s < sockets; ++s) {
    interconnects_.push_back(
        std::make_unique<sim::FluidLink>(engine, machine_.interconnect_bw));
  }
}

sim::FluidLink& MemorySystem::socket_pool(int node, int socket) {
  const auto idx =
      static_cast<std::size_t>(node * machine_.sockets_per_node + socket);
  assert(idx < socket_pools_.size());
  return *socket_pools_[idx];
}

sim::FluidLink& MemorySystem::interconnect(int node, int from_socket) {
  const auto idx =
      static_cast<std::size_t>(node * machine_.sockets_per_node + from_socket);
  assert(idx < interconnects_.size());
  return *interconnects_[idx];
}

async::future<> MemorySystem::stream(topo::HwLoc at, topo::HwLoc home,
                                     double bytes) {
  assert(at.node == home.node && "cross-node traffic belongs to hupc::net");
  // The home socket's memory controller always carries the bytes. A
  // cross-socket stream also occupies the node interconnect; the transfer
  // completes when the memory pool has delivered everything, and the
  // interconnect occupancy creates back-pressure for concurrent users by
  // capping the memory-pool rate at the interconnect's fair share.
  if (at.socket == home.socket) {
    return socket_pool(home.node, home.socket).transfer(bytes);
  }
  // Start the interconnect leg fire-and-forget (its completion coincides
  // with the memory leg under equal rates; awaiting the memory leg is the
  // binding constraint for calibration purposes).
  (void)interconnect(home.node, home.socket).transfer(bytes);
  return socket_pool(home.node, home.socket).transfer(bytes);
}

sim::Task<void> MemorySystem::access(topo::HwLoc at, topo::HwLoc home,
                                     std::uint64_t count, double bytes_each) {
  assert(at.node == home.node);
  const double penalty = at.socket == home.socket ? 1.0 : machine_.numa_penalty;
  const double latency_s =
      static_cast<double>(count) * kDramLatencyNs * 1e-9 * penalty;
  // Latency term (dependent access chain) ...
  co_await sim::delay(*engine_, sim::from_seconds(latency_s));
  // ... plus bandwidth occupancy of the touched bytes.
  co_await stream(at, home, static_cast<double>(count) * bytes_each);
}

sim::DelayAwaiter MemorySystem::compute(const topo::SlotAllocator& slots,
                                        topo::HwLoc at,
                                        double single_thread_seconds) {
  const double factor = slots.speed_factor(at);
  assert(factor > 0.0);
  return sim::delay(*engine_,
                    sim::from_seconds(single_thread_seconds / factor));
}

sim::DelayAwaiter MemorySystem::compute_flops(const topo::SlotAllocator& slots,
                                              topo::HwLoc at, double flops,
                                              double efficiency) {
  assert(efficiency > 0.0 && efficiency <= 1.0);
  const double seconds = flops / (machine_.core_flops() * efficiency);
  return compute(slots, at, seconds);
}

}  // namespace hupc::mem
