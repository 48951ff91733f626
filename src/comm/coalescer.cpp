#include "comm/coalescer.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace hupc::comm {

namespace {

const trace::CounterId kOpPut = trace::intern("comm.op.put");
const trace::CounterId kOpRead = trace::intern("comm.op.read");
const trace::CounterId kVisPacked = trace::intern("comm.vis.packed");
const trace::CounterId kFlushMsgs = trace::intern("comm.flush.msgs");
const trace::CounterId kFlushOps = trace::intern("comm.flush.ops");
const trace::CounterId kFlushBytes = trace::intern("comm.flush.bytes");
const trace::CounterId kFlushCapacity = trace::intern("comm.flush.capacity");
const trace::CounterId kFlushConflict = trace::intern("comm.flush.conflict");
const trace::CounterId kFlushFence = trace::intern("comm.flush.fence");
const trace::CounterId kAbandoned = trace::intern("comm.abandoned");

[[nodiscard]] trace::CounterId cause_counter(FlushCause cause) noexcept {
  switch (cause) {
    case FlushCause::capacity:
      return kFlushCapacity;
    case FlushCause::conflict:
      return kFlushConflict;
    case FlushCause::fence:
      return kFlushFence;
  }
  return kFlushFence;
}

}  // namespace

const Stats& Coalescer::stats() const {
  const trace::Counters& c = net_->counters();
  const std::uint64_t puts = c.get(kOpPut, rank_);
  view_ = Stats{.ops_absorbed = puts + c.get(kOpRead, rank_),
                .puts_deferred = puts,
                .flush_messages = c.get(kFlushMsgs, rank_),
                .flushes_capacity = c.get(kFlushCapacity, rank_),
                .flushes_conflict = c.get(kFlushConflict, rank_),
                .flushes_fence = c.get(kFlushFence, rank_),
                .abandoned_ops = c.get(kAbandoned, rank_)};
  return view_;
}

void Coalescer::configure(const Params& params) {
  if (buffered_ops_ != 0) {
    throw std::logic_error(
        "comm::Coalescer::configure: previous epoch still holds buffered "
        "operations (await end_coalesce() first)");
  }
  if (params.max_bytes == 0 || params.max_ops == 0) {
    throw std::invalid_argument(
        "comm::Params: max_bytes and max_ops must be >= 1");
  }
  params_ = params;
}

bool Coalescer::conflicts(const Buffer& buf, const void* addr,
                          std::size_t bytes) {
  if (addr == nullptr || bytes == 0) return false;
  const auto* lo = static_cast<const std::byte*>(addr);
  const auto* hi = lo + bytes;
  for (const PendingPut& p : buf.puts) {
    const auto* plo = static_cast<const std::byte*>(p.dst);
    const auto* phi = plo + p.len;
    if (plo < hi && lo < phi) return true;
  }
  return false;
}

bool Coalescer::over_capacity(const Buffer& buf) const noexcept {
  const double gross =
      buf.payload_bytes +
      static_cast<double>(buf.ops) * kPerOpHeaderBytes;
  return buf.ops >= params_.max_ops ||
         gross >= static_cast<double>(params_.max_bytes);
}

sim::Task<void> Coalescer::put(int dst_node, void* dst, const void* value,
                               std::size_t bytes) {
  assert(dst_node != src_node_ &&
         "coalescing is for remote destinations; local accesses take the "
         "memory path");
  Buffer& buf = buffers_[dst_node];
  const std::size_t offset = buf.arena.size();
  buf.arena.resize(offset + bytes);
  std::memcpy(buf.arena.data() + offset, value, bytes);
  buf.puts.push_back(PendingPut{dst, offset, bytes});
  ++buf.ops;
  buf.payload_bytes += static_cast<double>(bytes);
  ++buffered_ops_;
  net_->counters().add(kOpPut, rank_);
  if (over_capacity(buf)) {
    co_await drain(dst_node, buf, FlushCause::capacity);
  }
}

sim::Task<void> Coalescer::put_regions(int dst_node, void* dst_base,
                                       const void* src_base,
                                       const net::Region* regions,
                                       std::size_t count) {
  auto* dst = static_cast<std::byte*>(dst_base);
  const auto* src = static_cast<const std::byte*>(src_base);
  net_->counters().add(kVisPacked, rank_, static_cast<std::uint64_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    if (regions[i].bytes == 0) continue;
    co_await put(dst_node, dst + regions[i].dst_off, src + regions[i].src_off,
                 regions[i].bytes);
  }
}

sim::Task<void> Coalescer::read(int dst_node, const void* addr,
                                std::size_t bytes) {
  assert(dst_node != src_node_ &&
         "coalescing is for remote destinations; local accesses take the "
         "memory path");
  Buffer& buf = buffers_[dst_node];
  if (conflicts(buf, addr, bytes)) {
    // Read-your-writes: the buffered put to this range must be observed,
    // so the destination drains before the value is read.
    co_await drain(dst_node, buf, FlushCause::conflict);
  }
  ++buf.ops;
  buf.payload_bytes += static_cast<double>(bytes);
  ++buffered_ops_;
  net_->counters().add(kOpRead, rank_);
  if (over_capacity(buf)) {
    co_await drain(dst_node, buf, FlushCause::capacity);
  }
}

bool Coalescer::has_conflicting_put(int dst_node, const void* addr,
                                    std::size_t bytes) const {
  const auto it = buffers_.find(dst_node);
  return it != buffers_.end() && conflicts(it->second, addr, bytes);
}

sim::Task<void> Coalescer::flush(int dst_node, FlushCause cause) {
  auto it = buffers_.find(dst_node);
  if (it == buffers_.end() || it->second.ops == 0) co_return;
  co_await drain(dst_node, it->second, cause);
}

sim::Task<void> Coalescer::flush_all(FlushCause cause) {
  // std::map iteration order == ascending node order: deterministic.
  for (auto& [node, buf] : buffers_) {
    if (buf.ops == 0) continue;
    co_await drain(node, buf, cause);
  }
}

sim::Task<void> Coalescer::drain(int dst_node, Buffer& buf, FlushCause cause) {
  assert(buf.ops > 0);
  // Apply deferred puts in append order at flush initiation; the issuing
  // rank blocks on the aggregated rma below before touching anything else,
  // so no later operation of this rank can observe the window.
  for (const PendingPut& p : buf.puts) {
    std::memcpy(p.dst, buf.arena.data() + p.offset, p.len);
  }
  const std::uint64_t ops = buf.ops;
  const double gross =
      buf.payload_bytes +
      static_cast<double>(ops) * kPerOpHeaderBytes;
  buffered_ops_ -= ops;
  buf.puts.clear();
  buf.arena.clear();
  buf.ops = 0;
  buf.payload_bytes = 0.0;

  const trace::Scope span(tracer_, trace::Category::net, "coalesce.flush",
                          rank_, ops, static_cast<std::uint64_t>(dst_node));
  trace::Counters& counters = net_->counters();
  counters.add(kFlushMsgs, rank_);
  counters.add(kFlushOps, rank_, ops);
  counters.add(kFlushBytes, rank_, static_cast<std::uint64_t>(gross));
  counters.add(cause_counter(cause), rank_);
  co_await net_->rma(net::Transfer{.src_node = src_node_,
                                   .src_ep = src_ep_,
                                   .dst_node = dst_node,
                                   .bytes = gross,
                                   .coalesced_count = ops});
}

void Coalescer::abandon() {
  for (auto& [node, buf] : buffers_) {
    (void)node;
    if (buf.ops == 0) continue;
    for (const PendingPut& p : buf.puts) {
      std::memcpy(p.dst, buf.arena.data() + p.offset, p.len);
    }
    net_->counters().add(kAbandoned, rank_, buf.ops);
    buffered_ops_ -= buf.ops;
    buf.puts.clear();
    buf.arena.clear();
    buf.ops = 0;
    buf.payload_bytes = 0.0;
  }
}

}  // namespace hupc::comm
