// Network conduit parameter sets (the GASNet term for a network backend).
//
// A message of S bytes from an endpoint on node A to node B costs, in
// LogGP-like terms:
//
//   [injection]  o_send + S/stage_bw   serialized per *connection* (FIFO) —
//                this is the CPU/queue-pair path; sharing one connection
//                among many threads (pthreads backend) serializes here;
//   [wire]       S carried by both NICs' fluid-shared capacity, each flow
//                individually capped at conn_bw (one flow cannot saturate
//                the NIC: Fig 4.2b's 1-link ceiling);
//   [delivery]   latency + o_recv.
//
// Presets are calibrated to the thesis microbenchmark endpoints (Fig 4.2)
// and platform descriptions (Figs 2.1/2.2): see DESIGN.md §6.
#pragma once

#include <string>
#include <string_view>

namespace hupc::net {

struct ConduitSpec {
  std::string name;
  double send_overhead_s;  // o_send: CPU cost to issue one message
  double recv_overhead_s;  // o_recv: delivery-side software cost
  double latency_s;        // L: wire latency
  double stage_bw;         // injection staging bandwidth (bytes/s)
  double conn_bw;          // per-flow wire cap (bytes/s)
  double nic_bw;           // per-node NIC aggregate (bytes/s)
  // Per-message CPU service through the node's network-software path
  // (doorbells, completion processing, GASNet polling). Serialized per
  // node. Threads multiplexed over one shared connection pay *more* per
  // message (internal runtime locking — why pthread link-pairs extract
  // less small-message throughput in Fig 4.2) even though they contend
  // less at the HCA level (captured separately by the NIC-efficiency
  // model in gas::Runtime).
  double api_overhead_process_s = 1.0e-6;
  double api_overhead_shared_s = 1.6e-6;
};

/// Mellanox ConnectX QDR InfiniBand (Lehman). Fig 4.2: 1-link flood peaks
/// ~1.5 GB/s, multi-link ~2.4 GB/s, small-message round trip ~3-4 us.
[[nodiscard]] inline ConduitSpec ib_qdr() {
  return ConduitSpec{"ib-qdr", 0.3e-6, 0.25e-6, 0.85e-6, 6.0e9, 1.55e9, 2.45e9,
                     /*api process/shared:*/ 0.6e-6, 1.0e-6};
}

/// Mellanox DDR InfiniBand (Pyramid). Fig 2.1: 1.5 GB/s unidirectional.
[[nodiscard]] inline ConduitSpec ib_ddr() {
  return ConduitSpec{"ib-ddr", 0.5e-6, 0.4e-6, 2.5e-6, 5.0e9, 1.2e9, 1.5e9};
}

/// Gigabit Ethernet over the UDP conduit (Pyramid's second network): high
/// software overhead, ~50 us latency, ~117 MB/s line rate.
[[nodiscard]] inline ConduitSpec gige() {
  return ConduitSpec{"gige", 6.0e-6, 6.0e-6, 45.0e-6, 0.5e9, 0.117e9, 0.117e9};
}

/// "ib-qdr", "ib-ddr" or "gige". Throws std::invalid_argument listing the
/// known names.
[[nodiscard]] ConduitSpec conduit_preset(std::string_view name);

/// Which endpoints own network connections.
///   per_process — every UPC rank has its own connection (process backend:
///                 N connections per node);
///   per_node    — all ranks of a node share one connection (pthreads
///                 backend / sub-threads: 1 connection per node).
enum class ConnectionMode { per_process, per_node };

}  // namespace hupc::net
