#include "mpl/mpi.hpp"

#include <cassert>
#include <cstring>

namespace hupc::mpl {

Mpi::Mpi(gas::Runtime& rt) : rt_(&rt) {
  stages_.resize(static_cast<std::size_t>(rt.nodes_used()));
  for (int n = 0; n < rt.nodes_used(); ++n) {
    int parties = 0;
    for (int r = 0; r < rt.threads(); ++r) {
      if (rt.node_of(r) == n) ++parties;
    }
    stages_[static_cast<std::size_t>(n)].node_barrier =
        std::make_unique<sim::Barrier>(rt.engine(), parties);
  }
}

int Mpi::leader_of_node(int node) const { return node * rt_->ranks_per_node(); }

sim::Task<void> Mpi::matched_transfer(gas::Thread& self, int sender,
                                      int receiver, void* dst, const void* src,
                                      std::size_t bytes, double api_scale) {
  auto& rt = *rt_;
  if (rt.node_of(sender) == rt.node_of(receiver)) {
    // Intra-node legs take the shared-memory/loopback path as usual.
    co_await self.copy_raw(sender == self.rank() ? receiver : sender, dst, src,
                           bytes);
    co_return;
  }
  if (dst != nullptr && src != nullptr && bytes > 0) {
    std::memcpy(dst, src, bytes);
  }
  co_await rt.network().rma({.src_node = rt.node_of(sender),
                             .src_ep = rt.endpoint_of(sender),
                             .dst_node = rt.node_of(receiver),
                             .bytes = static_cast<double>(bytes),
                             .api_scale = api_scale});
}

sim::Task<void> Mpi::send_impl(gas::Thread& self, int dst, int tag,
                               const void* buf, std::size_t bytes,
                               double api_scale) {
  const Key key{self.rank(), dst, tag};
  auto& waiting = recvs_[key];
  if (!waiting.empty()) {
    // Receiver already posted: drive the transfer now (sender-driven).
    PendingRecv pending = std::move(waiting.front());
    waiting.pop_front();
    assert(pending.bytes == bytes && "mpl: size mismatch on matched message");
    co_await matched_transfer(self, self.rank(), dst, pending.buf, buf, bytes,
                              api_scale);
    pending.done.set_value();
    co_return;
  }
  if (bytes <= kEagerLimit) {
    // Eager: buffer the payload, charge the wire now, complete immediately.
    // (A null buf means a charge-only "modeled" message; see FtModel.)
    auto record = std::make_shared<Rendezvous>();
    record->bytes = bytes;
    record->eager = true;
    if (buf != nullptr) {
      record->eager_data.resize(bytes);
      std::memcpy(record->eager_data.data(), buf, bytes);
    }
    sends_[key].push_back(std::move(record));
    co_await matched_transfer(self, self.rank(), dst, nullptr, nullptr, bytes,
                              api_scale);
    co_return;
  }
  // Rendezvous: announce, wait for the receiver, then drive the wire
  // ourselves so the transfer schedule stays sender-staggered.
  auto record = std::make_shared<Rendezvous>();
  record->sbuf = buf;
  record->bytes = bytes;
  record->matched = async::promise<>(rt_->engine());
  record->recv_done = async::promise<>(rt_->engine());
  sends_[key].push_back(record);
  co_await record->matched.get_future().wait();
  co_await matched_transfer(self, self.rank(), dst, record->rbuf, buf, bytes,
                            api_scale);
  record->recv_done.set_value();
}

sim::Task<void> Mpi::recv_impl(gas::Thread& self, int src, int tag, void* buf,
                               std::size_t bytes, double api_scale) {
  (void)api_scale;  // the driving side charges the wire
  const Key key{src, self.rank(), tag};
  auto& waiting = sends_[key];
  if (!waiting.empty()) {
    std::shared_ptr<Rendezvous> pending = waiting.front();
    waiting.pop_front();
    assert(pending->bytes == bytes && "mpl: size mismatch on matched message");
    if (pending->eager) {
      // Data already arrived (charged at send time); just unpack.
      if (buf != nullptr && !pending->eager_data.empty()) {
        std::memcpy(buf, pending->eager_data.data(), bytes);
      }
      co_return;
    }
    // Hand our buffer to the sender and wait for it to push the data.
    pending->rbuf = buf;
    auto done = pending->recv_done.get_future();
    pending->matched.set_value();
    co_await done.wait();
    co_return;
  }
  recvs_[key].push_back(
      PendingRecv{buf, bytes, async::promise<>(rt_->engine())});
  auto fut = recvs_[key].back().done.get_future();
  co_await fut.wait();
}

sim::Task<void> Mpi::send(gas::Thread& self, int dst, int tag, const void* buf,
                          std::size_t bytes) {
  return send_impl(self, dst, tag, buf, bytes, 1.0);
}

sim::Task<void> Mpi::recv(gas::Thread& self, int src, int tag, void* buf,
                          std::size_t bytes) {
  return recv_impl(self, src, tag, buf, bytes, 1.0);
}

sim::Task<void> Mpi::pairwise_alltoall(gas::Thread& self, const void* sendbuf,
                                       void* recvbuf,
                                       std::size_t bytes_per_pair) {
  const int nthreads = self.threads();
  const int me = self.rank();
  const bool modeled = sendbuf == nullptr;  // charge-only (see alltoall)
  const auto* src = static_cast<const std::byte*>(sendbuf);
  auto* dst = static_cast<std::byte*>(recvbuf);
  if (!modeled) {
    // Self block.
    std::memcpy(dst + static_cast<std::size_t>(me) * bytes_per_pair,
                src + static_cast<std::size_t>(me) * bytes_per_pair,
                bytes_per_pair);
  }
  // Step-synchronized pairwise exchange (the textbook tuned algorithm):
  // at step s every rank sendrecv's with disjoint partners (me+s / me-s),
  // so the network sees clean non-overlapping waves — pre-posting the
  // whole schedule instead lets early matches jump the queue and creates
  // receiver-side incast (measurably slower on the fluid NIC model).
  constexpr int kTag = 0x5A5A;
  for (int step = 1; step < nthreads; ++step) {
    const int to = (me + step) % nthreads;
    const int from = (me - step + nthreads) % nthreads;
    auto send_done = sim::spawn(
        rt_->engine(),
        send_impl(self, to, kTag + step,
                  modeled ? nullptr
                          : src + static_cast<std::size_t>(to) * bytes_per_pair,
                  bytes_per_pair, kCollectiveApiScale));
    co_await recv_impl(self, from, kTag + step,
                       modeled ? nullptr
                               : dst + static_cast<std::size_t>(from) *
                                           bytes_per_pair,
                       bytes_per_pair, kCollectiveApiScale);
    co_await send_done.wait();
  }
}

void Mpi::ensure_stage(std::size_t bytes_per_pair) {
  const auto rpn = static_cast<std::size_t>(rt_->ranks_per_node());
  const auto nodes = static_cast<std::size_t>(rt_->nodes_used());
  const std::size_t needed = nodes * rpn * rpn * bytes_per_pair;
  if (needed <= stage_capacity_) return;
  stage_capacity_ = needed;
  for (auto& s : stages_) {
    s.gather.assign(needed, std::byte{});
    s.scatter.assign(needed, std::byte{});
  }
}

sim::Task<void> Mpi::alltoall(gas::Thread& self, const void* sendbuf,
                              void* recvbuf, std::size_t bytes_per_pair) {
  const int nthreads = self.threads();
  const auto rpn = static_cast<std::size_t>(rt_->ranks_per_node());
  const int nodes = rt_->nodes_used();
  // Algorithm selection, as in real tuned collectives: aggregation pays at
  // small per-pair sizes (injection and latency dominated); once the wire
  // dominates, the flat pairwise exchange keeps every endpoint streaming
  // in parallel and avoids funnelling a node's volume through its leader.
  // Fixed per-message costs (API + injection + latency) are a few us; the
  // leader funnel costs ~rpn x the wire time of the aggregated chunk. The
  // crossover sits around a kilobyte per pair.
  constexpr std::size_t kAggregationLimit = 1024;  // see bench_ablation_alltoall
  if (nodes == 1 || rpn == 1 || bytes_per_pair > kAggregationLimit) {
    co_await pairwise_alltoall(self, sendbuf, recvbuf, bytes_per_pair);
    co_return;
  }
  // Null buffers select "charge-only" mode (the FtModel driver simulates
  // paper-size classes without allocating the grid): all timing paths run,
  // no staging memory is touched.
  const bool modeled = sendbuf == nullptr;
  if (!modeled) ensure_stage(bytes_per_pair);

  const int me = self.rank();
  const int my_node = rt_->node_of(me);
  const auto local = static_cast<std::size_t>(me) - static_cast<std::size_t>(my_node) * rpn;
  const int leader = leader_of_node(my_node);
  auto& stage = stages_[static_cast<std::size_t>(my_node)];
  const auto* src = static_cast<const std::byte*>(sendbuf);
  auto* dst = static_cast<std::byte*>(recvbuf);
  const std::size_t b = bytes_per_pair;
  const std::size_t node_chunk = rpn * rpn * b;  // one node-pair's data

  auto local_count = [&](int node) {
    const int lo = node * static_cast<int>(rpn);
    const int hi = std::min(nthreads, lo + static_cast<int>(rpn));
    return static_cast<std::size_t>(hi - lo);
  };

  // Phase 1 — gather: my blocks for node m (contiguous in sendbuf) go to
  // the leader staging slot [m][local][*]; own-node blocks go straight to
  // the scatter area [my_node][local][*].
  for (int m = 0; m < nodes; ++m) {
    const std::size_t len = local_count(m) * b;
    const std::byte* blocks =
        modeled ? nullptr : src + static_cast<std::size_t>(m) * rpn * b;
    std::byte* target =
        modeled ? nullptr
                : (m == my_node ? stage.scatter.data() : stage.gather.data()) +
                      static_cast<std::size_t>(m == my_node ? my_node : m) *
                          node_chunk +
                      local * rpn * b;
    co_await self.copy_raw(leader, target, blocks, len);
  }
  co_await stage.node_barrier->arrive_and_wait();

  // Phase 2 — leaders exchange combined node chunks; all sends and
  // receives are in flight at once (a tuned collective keeps every flow
  // busy), so the phase is NIC-bound rather than per-flow-cap-bound.
  if (static_cast<int>(local) == 0) {
    constexpr int kTag = 0x417;
    std::vector<async::future<>> inflight;
    inflight.reserve(2 * static_cast<std::size_t>(nodes));
    for (int step = 1; step < nodes; ++step) {
      const int to_node = (my_node + step) % nodes;
      const int from_node = (my_node - step + nodes) % nodes;
      inflight.push_back(sim::spawn(
          rt_->engine(),
          send_impl(self, leader_of_node(to_node), kTag + step,
                    modeled ? nullptr
                            : stage.gather.data() +
                                  static_cast<std::size_t>(to_node) * node_chunk,
                    node_chunk, kCollectiveApiScale)));
      inflight.push_back(sim::spawn(
          rt_->engine(),
          recv_impl(self, leader_of_node(from_node), kTag + step,
                    modeled ? nullptr
                            : stage.scatter.data() +
                                  static_cast<std::size_t>(from_node) * node_chunk,
                    node_chunk, kCollectiveApiScale)));
    }
    for (auto& f : inflight) co_await f.wait();
  }
  co_await stage.node_barrier->arrive_and_wait();

  // Phase 3 — scatter: pull my column out of every received node chunk.
  for (int m = 0; m < nodes; ++m) {
    const std::size_t senders = local_count(m);
    for (std::size_t i = 0; !modeled && i < senders; ++i) {
      std::memcpy(dst + (static_cast<std::size_t>(m) * rpn + i) * b,
                  stage.scatter.data() + static_cast<std::size_t>(m) * node_chunk +
                      (i * rpn + local) * b,
                  b);
    }
    // One bulk charge per source node for the strided pull above.
    co_await self.copy_raw_from(self.loc(), leader, nullptr, nullptr,
                                senders * b);
  }
  co_await stage.node_barrier->arrive_and_wait();
}

}  // namespace hupc::mpl
