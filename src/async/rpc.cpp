#include "async/rpc.hpp"

#include "sim/process.hpp"
#include "sim/time.hpp"

namespace hupc::async {

namespace {
const trace::CounterId kSent = trace::intern("async.rpc.sent");
const trace::CounterId kBytes = trace::intern("async.rpc.bytes");
const trace::CounterId kExecuted = trace::intern("async.rpc.executed");
const trace::CounterId kCompleted = trace::intern("async.rpc.completed");
}  // namespace

RpcDomain::RpcDomain(gas::Runtime& rt) : rt_(&rt) {
  personas_.reserve(static_cast<std::size_t>(rt.threads()));
  for (int r = 0; r < rt.threads(); ++r) {
    personas_.push_back(std::make_unique<sim::ProgressQueue>(rt.engine()));
  }
}

sim::Task<void> RpcDomain::transport(int from_rank, int to_rank,
                                     double bytes) {
  gas::Runtime& rt = *rt_;
  if (from_rank == to_rank) {
    // Self-RPC: an in-process handoff; the persona hop sequences it, the
    // charge is one software dispatch.
    co_await sim::delay(rt.engine(),
                        sim::from_seconds(rt.config().shm_copy_overhead_s));
  } else if (rt.same_supernode(from_rank, to_rank)) {
    // Cross-rank within a supernode: plain stores into the peer's inbox.
    co_await sim::delay(rt.engine(),
                        sim::from_seconds(rt.config().shm_copy_overhead_s));
    co_await rt.memory().stream(rt.loc_of(from_rank), rt.loc_of(to_rank),
                                bytes);
  } else if (rt.node_of(from_rank) == rt.node_of(to_rank)) {
    // Same node, segments not cross-mapped: the loopback channel.
    co_await rt.network().loopback({.src_node = rt.node_of(from_rank),
                                    .src_ep = rt.endpoint_of(from_rank),
                                    .dst_node = rt.node_of(to_rank),
                                    .bytes = bytes},
                                   gas::kLoopbackBw);
  } else {
    co_await rt.network().rma({.src_node = rt.node_of(from_rank),
                               .src_ep = rt.endpoint_of(from_rank),
                               .dst_node = rt.node_of(to_rank),
                               .bytes = bytes});
  }
}

sim::Task<void> RpcDomain::completion_delay(int rank) {
  if (fault::CompletionHook* hook = rt_->fault_hooks().completion) {
    const std::int64_t extra = hook->delay_completion(rank);
    if (extra > 0) co_await sim::delay(rt_->engine(), extra);
  }
}

RpcDomain::Stats RpcDomain::stats() const {
  const trace::Counters& c = rt_->counters();
  return Stats{.sent = c.total(kSent),
               .executed = c.total(kExecuted),
               .completed = c.total(kCompleted)};
}

void RpcDomain::note_sent(int rank, std::size_t wire_bytes) {
  rt_->counters().add(kSent, rank);
  rt_->counters().add(kBytes, rank, wire_bytes);
}

void RpcDomain::note_executed(int rank) {
  rt_->counters().add(kExecuted, rank);
}

void RpcDomain::note_completed(int rank) {
  rt_->counters().add(kCompleted, rank);
}

}  // namespace hupc::async
