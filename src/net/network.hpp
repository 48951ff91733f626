// The simulated cluster interconnect.
//
// Owns one NIC fluid link per node plus one injection FIFO per connection
// (connection granularity chosen by ConnectionMode). rma() performs a
// one-sided bulk transfer and completes when the payload is remotely
// delivered; sim::spawn(engine, rma(t)) is its non-blocking form.
//
// Every transfer is described by a net::Transfer descriptor instead of a
// growing positional-parameter list; aggregated (coalesced) messages carry
// the number of fine-grained operations they absorbed so the counters can
// reconcile message rates with logical access rates.
//
// Message, aggregation and VIS counts go to the engine's counter registry
// (net.* counters, attributed to the issuing rank) so benches can report
// messaging rates and verify communication schedules; only the exact
// double byte totals live here, for check_byte_conservation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/hooks.hpp"
#include "net/conduit.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "topo/machine.hpp"
#include "trace/trace.hpp"

namespace hupc::net {

/// One contiguous run of a packed (VIS) transfer footprint, in bytes
/// relative to the transfer's destination and source bases. The descriptor
/// lowering in hupc::gas flattens strided/indexed specs into these runs;
/// the network only ever sees their count and summed payload.
struct Region {
  std::size_t dst_off = 0;
  std::size_t src_off = 0;
  std::size_t bytes = 0;
};

/// One-sided transfer descriptor (the argument to rma / loopback).
/// `src_ep` is the node-local endpoint index of the issuing rank;
/// `api_scale` scales the per-message shared-API service cost —
/// tuned collective engines batch doorbells/completions and pay a fraction
/// of the per-message cost independent endpoints do. `coalesced_count > 1`
/// marks an aggregated message carrying that many fine-grained operations
/// (one comm::Coalescer flush); `regions > 1` marks a packed VIS message
/// carrying that many non-contiguous regions totalling `payload_bytes` of
/// real data (`bytes` additionally carries per-region metadata headers).
/// Both footprint fields affect accounting and trace only, never timing.
struct Transfer {
  int src_node = -1;
  int src_ep = 0;
  int dst_node = -1;
  double bytes = 0.0;
  double api_scale = 1.0;
  std::uint64_t coalesced_count = 1;
  std::uint64_t regions = 1;
  double payload_bytes = 0.0;  // set (payload sans headers) when regions > 1
};

class Network {
 public:
  /// `endpoints_per_node` — how many distinct endpoints (UPC ranks) may
  /// issue traffic per node; defines connection count in per_process mode.
  Network(sim::Engine& engine, const topo::MachineSpec& machine,
          ConduitSpec conduit, ConnectionMode mode, int endpoints_per_node);

  /// One-sided transfer of `t.bytes` from endpoint `t.src_ep` (node-local
  /// index) on `t.src_node` to `t.dst_node`. Completes at remote delivery.
  [[nodiscard]] sim::Task<void> rma(Transfer t);

  /// Intra-node transfer through the network stack (the no-PSHM loopback
  /// path): pays API, injection and endpoint-pipeline costs like a real
  /// message — contending with genuine network traffic — but moves at
  /// `loopback_bw` instead of crossing the wire. This contention is what
  /// PSHM eliminates (thesis §3.1, Fig 3.4). `t.dst_node` is ignored (the
  /// message never leaves `t.src_node`).
  [[nodiscard]] sim::Task<void> loopback(Transfer t, double loopback_bw);

  [[nodiscard]] const ConduitSpec& conduit() const noexcept { return conduit_; }
  [[nodiscard]] ConnectionMode mode() const noexcept { return mode_; }
  /// The engine's counter registry (see sim::Engine::counters).
  [[nodiscard]] trace::Counters& counters() noexcept {
    return engine_->counters();
  }
  [[nodiscard]] const trace::Counters& counters() const noexcept {
    return engine_->counters();
  }

  // Views over the net.* counters, summed over every issuing rank.
  [[nodiscard]] std::uint64_t total_messages() const noexcept;
  [[nodiscard]] std::uint64_t total_aggregated() const noexcept;
  [[nodiscard]] std::uint64_t total_coalesced_ops() const noexcept;
  [[nodiscard]] std::uint64_t total_vis_messages() const noexcept;
  [[nodiscard]] std::uint64_t total_vis_regions() const noexcept;
  /// Exact byte totals (the net.*bytes counters truncate per message):
  /// gross wire bytes, and the payload and gross bytes of packed VIS
  /// messages.
  [[nodiscard]] double total_bytes() const noexcept { return bytes_; }
  [[nodiscard]] double total_vis_payload_bytes() const noexcept {
    return vis_payload_bytes_;
  }
  [[nodiscard]] double total_vis_bytes() const noexcept { return vis_bytes_; }

  [[nodiscard]] sim::FluidLink& nic(int node) {
    return *nics_[static_cast<std::size_t>(node)];
  }

  /// Attach a tracer (non-owning, may be null): message inject/deliver
  /// instants plus per-connection queueing scopes are recorded.
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Install the actual (node, endpoint) -> global rank attribution table,
  /// flattened as `table[node * endpoints_per_node + ep]` with -1 for
  /// unused endpoint slots. The owning runtime derives it from its real
  /// placement table; without one trace_rank falls back to assuming
  /// blockwise placement (exact for every current preset, wrong in
  /// general — the documented inaccuracy this table removes).
  void set_endpoint_ranks(std::vector<int> table) {
    endpoint_ranks_ = std::move(table);
  }

  /// Attach a fault-injection hook (non-owning, may be null): every rma()
  /// consults it once at injection and applies the returned mutation —
  /// an extra hold before entering the API queue (latency spikes, link
  /// blackouts) and/or a scaled per-flow wire cap (bandwidth dips). The
  /// payload itself is never mutated, so byte conservation must survive
  /// any plan. Aggregated (coalesced) flush messages pass through the
  /// same seam: one consultation per flush, like any other message.
  void set_fault(fault::MessageHook* hook) noexcept { fault_ = hook; }

 private:
  [[nodiscard]] sim::Mutex& connection(int node, int endpoint);
  /// Global rank the exporters attribute endpoint traffic to: looked up in
  /// the placement-derived endpoint table when installed, else the
  /// blockwise-placement guess.
  [[nodiscard]] int trace_rank(int node, int endpoint) const noexcept {
    const std::size_t slot = static_cast<std::size_t>(
        node * endpoints_per_node_ + endpoint % endpoints_per_node_);
    if (slot < endpoint_ranks_.size() && endpoint_ranks_[slot] >= 0) {
      return endpoint_ranks_[slot];
    }
    return static_cast<int>(slot);
  }

  sim::Engine* engine_;
  ConduitSpec conduit_;
  ConnectionMode mode_;
  int endpoints_per_node_;
  trace::Tracer* tracer_ = nullptr;
  fault::MessageHook* fault_ = nullptr;
  std::vector<int> endpoint_ranks_;  // (node, ep) -> rank; empty = blockwise
  std::vector<std::unique_ptr<sim::FluidLink>> nics_;
  std::vector<std::unique_ptr<sim::Mutex>> connections_;
  // One per logical endpoint: a thread's wire transfers pipeline serially
  // at conn_bw (a single thread cannot saturate the NIC — the 1-link
  // ceiling of Fig 4.2b and the 2-threads-per-node knee of Fig 4.4).
  std::vector<std::unique_ptr<sim::Mutex>> endpoints_;
  std::vector<std::unique_ptr<sim::FifoServer>> api_queues_;  // per node
  double bytes_ = 0.0;
  double vis_payload_bytes_ = 0.0;
  double vis_bytes_ = 0.0;
};

}  // namespace hupc::net
