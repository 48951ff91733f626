#include "fft/ft_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hupc::fft {

namespace {
// Single-thread seconds for `flops` at `eff` fraction of this machine's
// core peak.
double flops_seconds(const gas::Runtime& rt, double flops, double eff) {
  return flops / (rt.config().machine.core_flops() * eff);
}
}  // namespace

FtModel::FtModel(gas::Runtime& rt, FtConfig config)
    : rt_(&rt), cfg_(config), timings_(static_cast<std::size_t>(rt.threads())) {
  const int T = rt.threads();
  const auto& g = cfg_.grid;
  planes_per_rank_ = (g.nz + T - 1) / T;
  plane_bytes_ = static_cast<double>(g.nx) * g.ny * sizeof(Complex);
  slab_bytes_ = plane_bytes_ * planes_per_rank_;
  chunk_bytes_ = g.total_bytes() / (static_cast<double>(T) * T);

  const double plane_points = static_cast<double>(g.nx) * g.ny;
  fft2d_plane_s_ =
      flops_seconds(rt, fft_flops(plane_points), kFftEfficiency);
  const double pencils = plane_points / T;
  fft1d_total_s_ = flops_seconds(
      rt, pencils * fft_flops(static_cast<double>(g.nz)), kFftEfficiency);

  if (cfg_.comm == FtComm::mpi_alltoall) {
    mpi_ = std::make_unique<mpl::Mpi>(rt);
  }
}

FtTimings FtModel::mean() const {
  FtTimings sum;
  for (const auto& t : timings_) sum += t;
  const auto n = static_cast<double>(timings_.size());
  return FtTimings{sum.evolve / n, sum.fft2d / n,  sum.transpose / n,
                   sum.comm / n,   sum.fft1d / n,  sum.total / n};
}

sim::Task<void> FtModel::compute_planes(gas::Thread& self, core::SubPool* pool,
                                        double per_plane_seconds, int planes) {
  if (pool == nullptr) {
    co_await self.compute(per_plane_seconds * planes);
    co_return;
  }
  co_await pool->parallel_for(
      static_cast<std::size_t>(planes), core::Schedule::static_chunks,
      [per_plane_seconds](core::SubContext& c, std::size_t lo,
                          std::size_t hi) -> sim::Task<void> {
        co_await c.compute(per_plane_seconds * static_cast<double>(hi - lo));
      });
}

sim::Task<void> FtModel::charge_stream(gas::Thread& self, core::SubPool* pool,
                                       double bytes) {
  // FT's evolve/transpose work on per-thread slabs that are cache-blocked
  // (a few MB per thread at scale), so they run at a per-core copy rate
  // rather than saturating the socket's DRAM pools — this is why Fig 4.4
  // shows them scaling linearly. Charged as compute so the SMT factor
  // produces the 128-thread kink.
  constexpr double kCoreCopyBw = 4.0e9;  // bytes/s per core, cache-blocked
  const double seconds = bytes / kCoreCopyBw;
  if (pool == nullptr) {
    co_await self.compute(seconds);
    co_return;
  }
  const auto width = static_cast<double>(pool->width());
  co_await pool->parallel_for(
      static_cast<std::size_t>(pool->width()), core::Schedule::static_chunks,
      [share = seconds / width](core::SubContext& c, std::size_t lo,
                                std::size_t hi) -> sim::Task<void> {
        co_await c.compute(share * static_cast<double>(hi - lo));
      });
}

sim::Task<void> FtModel::exchange_split(gas::Thread& self) {
  const int T = self.threads();
  const int me = self.rank();
  if (cfg_.comm == FtComm::mpi_alltoall) {
    co_await mpi_->alltoall(self, nullptr, nullptr,
                            static_cast<std::size_t>(chunk_bytes_));
    co_return;
  }
  gas::CollectiveSelector sel;
  sel.override_algo = cfg_.coll_algo;
  const gas::CollAlgo algo =
      sel.choose(gas::CollOp::alltoall, static_cast<std::size_t>(chunk_bytes_),
                 T, rt_->nodes_used() > 1);
  if (algo == gas::CollAlgo::hier && rt_->nodes_used() > 1) {
    co_await exchange_hier(self);
    co_return;
  }
  // Berkeley-style split phase: issue every peer chunk non-blocking, then
  // wait for all transfers (when_all over the completion layer's futures),
  // then a barrier to close the epoch.
  std::vector<async::future<>> pending;
  pending.reserve(static_cast<std::size_t>(T - 1));
  for (int step = 1; step < T; ++step) {
    const int peer = (me + step) % T;
    pending.push_back(self.launch_async(self.copy_raw(
        peer, nullptr, nullptr, static_cast<std::size_t>(chunk_bytes_))));
  }
  co_await async::when_all(std::move(pending)).wait();
  co_await self.barrier();
}

sim::Task<void> FtModel::exchange_hier(gas::Thread& self) {
  // Supernode-leader all-to-all, cost-model edition (mirrors the
  // gas::Collectives hier schedule): intra-node chunks go direct (PSHM),
  // each non-leader funnels its off-node portion through its node leader,
  // leaders exchange ONE aggregated message per ordered node pair, and
  // non-leaders pull their inbound slab back. The wire sees G*(G-1) large
  // messages instead of T*(T-1) small ones.
  const int T = self.threads();
  const int me = self.rank();
  const int my_node = rt_->node_of(me);
  const int G = rt_->nodes_used();
  std::vector<int> node_sizes(static_cast<std::size_t>(G), 0);
  std::vector<int> leaders(static_cast<std::size_t>(G), -1);
  std::vector<int> locals;
  for (int r = 0; r < T; ++r) {
    const int node = rt_->node_of(r);
    if (leaders[static_cast<std::size_t>(node)] < 0) {
      leaders[static_cast<std::size_t>(node)] = r;
    }
    ++node_sizes[static_cast<std::size_t>(node)];
    if (node == my_node) locals.push_back(r);
  }
  const int A = static_cast<int>(locals.size());
  const int leader = leaders[static_cast<std::size_t>(my_node)];
  const auto chunk = [this](double chunks) {
    return static_cast<std::size_t>(chunk_bytes_ * chunks);
  };

  // Phase 1 — node-local: direct chunks to local peers, plus the off-node
  // funnel into the leader's staging.
  for (int peer : locals) {
    if (peer == me) continue;
    co_await self.copy_raw(peer, nullptr, nullptr, chunk(1));
  }
  if (me != leader) {
    co_await self.copy_raw(leader, nullptr, nullptr, chunk(T - A));
  }
  co_await self.barrier();

  // Phase 2 — leader exchange: one aggregated message per other node,
  // staggered by node and pipelined through the completion layer.
  if (me == leader && G > 1) {
    std::vector<async::future<>> pending;
    pending.reserve(static_cast<std::size_t>(G - 1));
    for (int s = 1; s < G; ++s) {
      const int h = (my_node + s) % G;
      pending.push_back(self.launch_async(self.copy_raw(
          leaders[static_cast<std::size_t>(h)], nullptr, nullptr,
          chunk(static_cast<double>(A) * node_sizes[static_cast<std::size_t>(h)]))));
    }
    co_await async::when_all(std::move(pending)).wait();
  }
  co_await self.barrier();

  // Phase 3 — local scatter: non-leaders pull their inbound off-node slab.
  if (me != leader) {
    co_await self.copy_raw(leader, nullptr, nullptr, chunk(T - A));
  }
  co_await self.barrier();
}

sim::Task<void> FtModel::exchange_overlap(gas::Thread& self,
                                          core::SubPool* pool,
                                          double per_plane_seconds,
                                          int planes) {
  // Each plane's contribution to each peer leaves as soon as that plane's
  // 2-D FFT completes; communication rides under the remaining compute.
  const int T = self.threads();
  const int me = self.rank();
  const double piece = chunk_bytes_ / planes_per_rank_;
  const auto expected = static_cast<std::size_t>(planes) *
                        static_cast<std::size_t>(T - 1);
  std::vector<async::future<>> pending;
  pending.reserve(expected);

  auto send_plane = [&](gas::Thread& t) {
    for (int step = 1; step < T; ++step) {
      const int peer = (me + step) % T;
      pending.push_back(t.launch_async(
          t.copy_raw(peer, nullptr, nullptr, static_cast<std::size_t>(piece))));
    }
  };

  if (pool == nullptr) {
    for (int p = 0; p < planes; ++p) {
      co_await self.compute(per_plane_seconds);
      send_plane(self);
    }
  } else {
    // Sub-threads compute planes; the master (context 0) funnels each
    // finished plane into the network. We approximate the thesis's
    // concurrent-injection pattern by having compute proceed region-wise
    // while sends are issued per plane from the master context.
    const int width = pool->width();
    const int rounds = (planes + width - 1) / width;
    for (int r = 0; r < rounds; ++r) {
      const int batch = std::min(width, planes - r * width);
      co_await pool->parallel_for(
          static_cast<std::size_t>(batch), core::Schedule::static_chunks,
          [per_plane_seconds](core::SubContext& c, std::size_t lo,
                              std::size_t hi) -> sim::Task<void> {
            co_await c.compute(per_plane_seconds *
                               static_cast<double>(hi - lo));
          });
      for (int p = 0; p < batch; ++p) send_plane(self);
    }
  }
  co_await async::when_all(std::move(pending)).wait();
  co_await self.barrier();
}

sim::Task<void> FtModel::run(gas::Thread& self) {
  auto& engine = rt_->engine();
  auto& t = timings_[static_cast<std::size_t>(self.rank())];
  std::unique_ptr<core::SubPool> pool;
  if (cfg_.subs > 0) {
    pool = std::make_unique<core::SubPool>(self, cfg_.subs, cfg_.sub_model,
                                           core::ThreadSafety::serialized);
  }
  const auto& g = cfg_.grid;
  const double evolve_flops =
      static_cast<double>(g.nx) * g.ny * planes_per_rank_ * 8.0;
  const double evolve_s = flops_seconds(*rt_, evolve_flops, 0.5);

  const sim::Time start = engine.now();
  co_await self.barrier();
  for (int iter = 0; iter < g.iterations; ++iter) {
    sim::Time mark = engine.now();

    // evolve: elementwise factors — memory bound plus a few flops.
    co_await charge_stream(self, pool.get(), 2.0 * slab_bytes_);
    co_await compute_planes(self, pool.get(), evolve_s / planes_per_rank_,
                            planes_per_rank_);
    t.evolve += sim::to_seconds(engine.now() - mark);
    mark = engine.now();

    // Forward 2-D FFTs on local planes (overlap defers them into the
    // exchange loop).
    if (cfg_.variant == CommVariant::split_phase) {
      co_await compute_planes(self, pool.get(), fft2d_plane_s_,
                              planes_per_rank_);
      t.fft2d += sim::to_seconds(engine.now() - mark);
      mark = engine.now();

      // Local transpose into exchange order.
      co_await charge_stream(self, pool.get(), 2.0 * slab_bytes_);
      t.transpose += sim::to_seconds(engine.now() - mark);
      mark = engine.now();

      co_await exchange_split(self);
      t.comm += sim::to_seconds(engine.now() - mark);
    } else {
      co_await exchange_overlap(self, pool.get(), fft2d_plane_s_,
                                planes_per_rank_);
      // The overlap variant interleaves fft2d with communication; split
      // the elapsed wall into compute (known) and the rest as comm.
      const double elapsed = sim::to_seconds(engine.now() - mark);
      const double compute_part = fft2d_plane_s_ * planes_per_rank_;
      t.fft2d += compute_part;
      t.comm += std::max(0.0, elapsed - compute_part);
      mark = engine.now();
      co_await charge_stream(self, pool.get(), 2.0 * slab_bytes_);
      t.transpose += sim::to_seconds(engine.now() - mark);
    }
    mark = engine.now();

    // 1-D FFTs along Z on my pencil bundle.
    if (pool == nullptr) {
      co_await self.compute(fft1d_total_s_);
    } else {
      co_await pool->parallel_for(
          static_cast<std::size_t>(pool->width()),
          core::Schedule::static_chunks,
          [share = fft1d_total_s_ / pool->width()](
              core::SubContext& c, std::size_t lo,
              std::size_t hi) -> sim::Task<void> {
            co_await c.compute(share * static_cast<double>(hi - lo));
          });
    }
    t.fft1d += sim::to_seconds(engine.now() - mark);

    // Checksum epoch.
    co_await self.barrier();
  }
  t.total = sim::to_seconds(engine.now() - start);
  co_return;
}

}  // namespace hupc::fft
