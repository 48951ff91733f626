#include "net/network.hpp"

#include <cassert>

#include "util/names.hpp"

namespace hupc::net {

namespace {
const trace::CounterId kMsg = trace::intern("net.msg");
const trace::CounterId kBytes = trace::intern("net.bytes");
const trace::CounterId kAggregated = trace::intern("net.aggregated");
const trace::CounterId kCoalescedOps = trace::intern("net.coalesced_ops");
const trace::CounterId kVisMsg = trace::intern("net.vis.msg");
const trace::CounterId kVisRegions = trace::intern("net.vis.regions");
const trace::CounterId kVisBytes = trace::intern("net.vis.bytes");
const trace::CounterId kDelivered = trace::intern("net.delivered");
const trace::CounterId kLoopback = trace::intern("net.loopback");
const trace::CounterId kFaultHold = trace::intern("fault.msg.hold");
const trace::CounterId kFaultDegrade = trace::intern("fault.msg.degrade");
}  // namespace

ConduitSpec conduit_preset(std::string_view name) {
  static constexpr util::Named<ConduitSpec (*)()> kPresets[] = {
      {"ib-qdr", ib_qdr}, {"ib-ddr", ib_ddr}, {"gige", gige}};
  return util::lookup(kPresets, "conduit", name).value();
}

Network::Network(sim::Engine& engine, const topo::MachineSpec& machine,
                 ConduitSpec conduit, ConnectionMode mode,
                 int endpoints_per_node)
    : engine_(&engine),
      conduit_(std::move(conduit)),
      mode_(mode),
      endpoints_per_node_(endpoints_per_node) {
  assert(endpoints_per_node_ >= 1);
  nics_.reserve(static_cast<std::size_t>(machine.nodes));
  for (int n = 0; n < machine.nodes; ++n) {
    nics_.push_back(std::make_unique<sim::FluidLink>(engine, conduit_.nic_bw));
  }
  const int conns_per_node =
      mode_ == ConnectionMode::per_process ? endpoints_per_node_ : 1;
  connections_.reserve(
      static_cast<std::size_t>(machine.nodes * conns_per_node));
  for (int i = 0; i < machine.nodes * conns_per_node; ++i) {
    connections_.push_back(std::make_unique<sim::Mutex>(engine));
  }
  endpoints_.reserve(
      static_cast<std::size_t>(machine.nodes * endpoints_per_node_));
  for (int i = 0; i < machine.nodes * endpoints_per_node_; ++i) {
    endpoints_.push_back(std::make_unique<sim::Mutex>(engine));
  }
  api_queues_.reserve(static_cast<std::size_t>(machine.nodes));
  for (int n = 0; n < machine.nodes; ++n) {
    api_queues_.push_back(std::make_unique<sim::FifoServer>(engine));
  }
}

sim::Mutex& Network::connection(int node, int endpoint) {
  const int conns_per_node =
      mode_ == ConnectionMode::per_process ? endpoints_per_node_ : 1;
  const int local =
      mode_ == ConnectionMode::per_process ? endpoint % endpoints_per_node_ : 0;
  return *connections_[static_cast<std::size_t>(node * conns_per_node + local)];
}

sim::Task<void> Network::rma(Transfer t) {
  assert(t.src_node != t.dst_node &&
         "intra-node traffic takes the shared-memory path in hupc::gas");
  const int rank = trace_rank(t.src_node, t.src_ep);
  HUPC_TRACE_SCOPE(tracer_, trace::Category::net, "rma", rank,
                   static_cast<std::uint64_t>(t.bytes),
                   static_cast<std::uint64_t>(t.dst_node));
  HUPC_TRACE_INSTANT(tracer_, trace::Category::net, "inject", rank,
                     static_cast<std::uint64_t>(t.bytes),
                     static_cast<std::uint64_t>(t.dst_node));
  trace::Counters& counters = engine_->counters();
  counters.add(kMsg, rank);
  counters.add(kBytes, rank, static_cast<std::uint64_t>(t.bytes));
  bytes_ += t.bytes;
  if (t.coalesced_count > 1) {
    counters.add(kAggregated, rank);
    counters.add(kCoalescedOps, rank, t.coalesced_count);
  }
  if (t.regions > 1) {
    // Packed VIS footprint: the trace carries region count and bytes per
    // region so a Chrome-trace view distinguishes 1x64KiB from 4096x16B
    // (the "rma" scope above only shows the total).
    vis_payload_bytes_ += t.payload_bytes;
    vis_bytes_ += t.bytes;
    HUPC_TRACE_INSTANT(tracer_, trace::Category::net, "vis", rank, t.regions,
                       static_cast<std::uint64_t>(
                           t.payload_bytes / static_cast<double>(t.regions)));
    counters.add(kVisMsg, rank);
    counters.add(kVisRegions, rank, t.regions);
    counters.add(kVisBytes, rank, static_cast<std::uint64_t>(t.payload_bytes));
  }

  // Fault injection: one consultation per message. The mutation can hold
  // the message (a dark link buffers it until recovery) and/or degrade its
  // wire rate; it never drops or duplicates payload bytes.
  double wire_cap = conduit_.conn_bw;
  if (fault_ != nullptr) {
    const fault::MessageMutation mut =
        fault_->on_message(t.src_node, t.dst_node, t.bytes);
    if (mut.hold_s > 0.0) {
      counters.add(kFaultHold, rank);
      co_await sim::delay(*engine_, sim::from_seconds(mut.hold_s));
    }
    if (mut.bw_scale < 1.0) {
      counters.add(kFaultDegrade, rank);
      // Floor at 1e-4x: a zero-rate flow would never complete (blackouts
      // are modeled as holds, not zero bandwidth).
      wire_cap *= mut.bw_scale < 1e-4 ? 1e-4 : mut.bw_scale;
    }
  }

  // Shared network-API path: every message serializes briefly through the
  // node's HCA/driver; independent process endpoints contend harder than
  // threads multiplexed over one connection.
  const double api = mode_ == ConnectionMode::per_process
                         ? conduit_.api_overhead_process_s
                         : conduit_.api_overhead_shared_s;
  {
    // Queue wait + service on the node's software path: the per-connection
    // queueing the thesis blames for pthreads' small-message gap.
    HUPC_TRACE_SCOPE(tracer_, trace::Category::net, "api_queue", rank);
    co_await api_queues_[static_cast<std::size_t>(t.src_node)]->serve(
        sim::from_seconds(api * t.api_scale));
  }

  // Injection: the connection is held for the send overhead plus the
  // staging copy; the wire legs start as soon as staging begins (pipelined),
  // so a lone large message is wire-bound while senders sharing a
  // connection still serialize on the staging path.
  // The endpoint pipeline: one thread's messages occupy the wire one at a
  // time (each at most conn_bw), so a lone rank per node tops out at the
  // single-flow ceiling while additional ranks add concurrent flows until
  // the NIC saturates.
  {
    auto& endpoint = *endpoints_[static_cast<std::size_t>(
        t.src_node * endpoints_per_node_ + t.src_ep % endpoints_per_node_)];
    co_await endpoint.lock();
    sim::ScopedLock pipeline(endpoint);
    async::future<> src_leg, dst_leg;
    {
      auto& conn = connection(t.src_node, t.src_ep);
      co_await conn.lock();
      sim::ScopedLock guard(conn);
      co_await sim::delay(*engine_,
                          sim::from_seconds(conduit_.send_overhead_s));
      src_leg = nic(t.src_node).transfer(t.bytes, wire_cap);
      dst_leg = nic(t.dst_node).transfer(t.bytes, wire_cap);
      co_await sim::delay(*engine_,
                          sim::from_seconds(t.bytes / conduit_.stage_bw));
    }
    co_await src_leg.wait();
    co_await dst_leg.wait();
  }

  // Delivery: propagation latency plus receive-side software overhead.
  // The endpoint is released first — propagation occupies the wire, not
  // the sender, so an endpoint's next message can begin injecting while
  // this one is in flight (LogGP: back-to-back sends pay the gap, and only
  // the last one's latency is exposed). Blocking callers still observe the
  // full delivery because they await this coroutine to completion; it is
  // the split-phase/async callers that get the pipelining.
  co_await sim::delay(
      *engine_,
      sim::from_seconds(conduit_.latency_s + conduit_.recv_overhead_s));
  HUPC_TRACE_INSTANT(tracer_, trace::Category::net, "deliver", rank,
                     static_cast<std::uint64_t>(t.bytes),
                     static_cast<std::uint64_t>(t.dst_node));
  engine_->counters().add(kDelivered, rank);
}

sim::Task<void> Network::loopback(Transfer t, double loopback_bw) {
  const int rank = trace_rank(t.src_node, t.src_ep);
  HUPC_TRACE_SCOPE(tracer_, trace::Category::net, "loopback", rank,
                   static_cast<std::uint64_t>(t.bytes));
  engine_->counters().add(kLoopback, rank);
  const double api = mode_ == ConnectionMode::per_process
                         ? conduit_.api_overhead_process_s
                         : conduit_.api_overhead_shared_s;
  {
    HUPC_TRACE_SCOPE(tracer_, trace::Category::net, "api_queue", rank);
    co_await api_queues_[static_cast<std::size_t>(t.src_node)]->serve(
        sim::from_seconds(api * t.api_scale));
  }

  auto& endpoint = *endpoints_[static_cast<std::size_t>(
      t.src_node * endpoints_per_node_ + t.src_ep % endpoints_per_node_)];
  co_await endpoint.lock();
  sim::ScopedLock pipeline(endpoint);
  {
    auto& conn = connection(t.src_node, t.src_ep);
    co_await conn.lock();
    sim::ScopedLock guard(conn);
    co_await sim::delay(*engine_, sim::from_seconds(conduit_.send_overhead_s));
    co_await sim::delay(*engine_,
                        sim::from_seconds(t.bytes / conduit_.stage_bw));
  }
  co_await sim::delay(*engine_, sim::from_seconds(t.bytes / loopback_bw +
                                                  conduit_.recv_overhead_s));
}

std::uint64_t Network::total_messages() const noexcept {
  return counters().total(kMsg);
}

std::uint64_t Network::total_vis_messages() const noexcept {
  return counters().total(kVisMsg);
}

std::uint64_t Network::total_vis_regions() const noexcept {
  return counters().total(kVisRegions);
}

}  // namespace hupc::net
