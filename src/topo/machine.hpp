// Hardware machine model: a four-level hierarchy
//   machine -> node -> socket -> core -> hardware thread (SMT)
// plus the quantitative parameters the cost models need. The two presets
// mirror the paper's experimental platforms (thesis Table 2.1):
//   Lehman  — 12 nodes, 2x quad-core Intel Xeon E5520 (Nehalem), 2-way SMT,
//             QDR InfiniBand;
//   Pyramid — 128 nodes, 2x quad-core AMD Opteron 2354 (Barcelona), no SMT,
//             DDR InfiniBand and Gigabit Ethernet.
#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <string_view>

namespace hupc::topo {

struct CacheSpec {
  std::size_t l1d_per_core;
  std::size_t l2_per_core;
  std::size_t l3_per_socket;
};

struct MachineSpec {
  std::string name;

  int nodes;
  int sockets_per_node;
  int cores_per_socket;
  int smt_per_core;  // hardware threads per core (1 = no SMT)

  double clock_ghz;
  double flops_per_cycle;  // per core, counting 128-bit SIMD FMA issue

  CacheSpec cache;

  // Memory system (calibrated in DESIGN.md §6).
  double socket_mem_bw;    // bytes/s STREAM-like per socket
  double interconnect_bw;  // QPI / HyperTransport bytes/s per direction
  double numa_penalty;     // remote-socket access slowdown factor (>1)

  // Combined throughput of two SMT threads on one core relative to one
  // thread (paper: computation kernels gain 5-30% from SMT).
  double smt_throughput;

  [[nodiscard]] int cores_per_node() const noexcept {
    return sockets_per_node * cores_per_socket;
  }
  [[nodiscard]] int hwthreads_per_socket() const noexcept {
    return cores_per_socket * smt_per_core;
  }
  [[nodiscard]] int hwthreads_per_node() const noexcept {
    return sockets_per_node * hwthreads_per_socket();
  }
  [[nodiscard]] int total_hwthreads() const noexcept {
    return nodes * hwthreads_per_node();
  }
  [[nodiscard]] double core_flops() const noexcept {
    return clock_ghz * 1e9 * flops_per_cycle;
  }
};

/// Location of one hardware thread slot.
struct HwLoc {
  int node = 0;
  int socket = 0;
  int core = 0;
  int smt = 0;

  friend bool operator==(const HwLoc&, const HwLoc&) = default;
};

/// Hierarchy levels, ordered from innermost sharing domain outwards.
enum class Level { hwthread = 0, core = 1, socket = 2, node = 3, machine = 4 };

/// Smallest hierarchy level at which two locations share a domain:
/// same core -> Level::core, same socket (different core) -> Level::socket...
[[nodiscard]] constexpr Level shared_level(const HwLoc& a, const HwLoc& b) noexcept {
  if (a.node != b.node) return Level::machine;
  if (a.socket != b.socket) return Level::node;
  if (a.core != b.core) return Level::socket;
  if (a.smt != b.smt) return Level::core;
  return Level::hwthread;
}

/// Topological distance: 0 = same hwthread ... 4 = different node.
[[nodiscard]] constexpr int distance(const HwLoc& a, const HwLoc& b) noexcept {
  return static_cast<int>(shared_level(a, b));
}

/// Preset builders. `nodes` overrides the preset node count when the paper
/// uses a subset of the cluster (e.g. NAS FT on 8 Lehman nodes).
[[nodiscard]] MachineSpec lehman(int nodes = 12);
[[nodiscard]] MachineSpec pyramid(int nodes = 128);

/// A machine preset looked up by name, with the network it was measured on.
struct MachinePreset {
  MachineSpec spec;
  const char* conduit;  // its default conduit: net::conduit_preset's name
};

/// "lehman" (QDR InfiniBand) or "pyramid" (DDR InfiniBand) on `nodes`
/// nodes. Throws std::invalid_argument listing the known names.
[[nodiscard]] MachinePreset machine_preset(std::string_view name, int nodes);

/// A deliberately tiny machine for unit tests: 2 nodes x 1 socket x 2 cores.
[[nodiscard]] MachineSpec toy(int nodes = 2);

}  // namespace hupc::topo
