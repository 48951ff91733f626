#include "linalg/summa.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "util/rng.hpp"

namespace hupc::linalg {

Summa::Summa(gas::Runtime& rt, ProcessGrid grid, std::size_t m, std::size_t n,
             std::size_t k, bool vis)
    : rt_(&rt), grid_(grid), vis_(vis), m_(m), n_(n), k_(k) {
  if (grid.pr != grid.pc) {
    throw std::invalid_argument("Summa: square process grids only");
  }
  if (grid.pr * grid.pc != rt.threads()) {
    throw std::invalid_argument("Summa: grid must cover THREADS exactly");
  }
  const auto p = static_cast<std::size_t>(grid.pr);
  if (m % p != 0 || n % p != 0 || k % p != 0) {
    throw std::invalid_argument("Summa: dimensions must divide by grid size");
  }
  tm_ = m / p;
  tn_ = n / p;
  tk_ = k / p;

  // Tile grids are exactly pr x pc, so round-robin tile dealing maps tile
  // (i, j) to process-grid rank (i, j) — the distribution SUMMA needs.
  a_ = rt.heap().all_alloc_2d<double>(m_, k_, tm_, tk_);
  b_ = rt.heap().all_alloc_2d<double>(k_, n_, tk_, tn_);
  c_ = rt.heap().all_alloc_2d<double>(m_, n_, tm_, tn_);

  for (int i = 0; i < grid.pr; ++i) {
    std::vector<int> members;
    for (int j = 0; j < grid.pc; ++j) members.push_back(grid.rank_of(i, j));
    row_teams_.emplace_back(rt, std::move(members));
  }
  for (int j = 0; j < grid.pc; ++j) {
    std::vector<int> members;
    for (int i = 0; i < grid.pr; ++i) members.push_back(grid.rank_of(i, j));
    col_teams_.emplace_back(rt, std::move(members));
  }

  panel_a_.reserve(static_cast<std::size_t>(rt.threads()));
  panel_b_.reserve(static_cast<std::size_t>(rt.threads()));
  for (int r = 0; r < rt.threads(); ++r) {
    panel_a_.push_back(rt.heap().alloc<double>(r, tm_ * tk_));
    panel_b_.push_back(rt.heap().alloc<double>(r, tk_ * tn_));
  }
}

double* Summa::tile_a(int i, int j) const {
  return a_.tile_base(static_cast<std::size_t>(i) * tm_,
                      static_cast<std::size_t>(j) * tk_)
      .raw;
}
double* Summa::tile_b(int i, int j) const {
  return b_.tile_base(static_cast<std::size_t>(i) * tk_,
                      static_cast<std::size_t>(j) * tn_)
      .raw;
}
double* Summa::tile_c(int i, int j) const {
  return c_.tile_base(static_cast<std::size_t>(i) * tm_,
                      static_cast<std::size_t>(j) * tn_)
      .raw;
}

void Summa::fill(std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < k_; ++j) {
      *a_.at(i, j).raw = rng.uniform() - 0.5;
    }
  }
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      *b_.at(i, j).raw = rng.uniform() - 0.5;
    }
  }
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      *c_.at(i, j).raw = 0.0;
    }
  }
}

sim::Task<void> Summa::run(gas::Thread& self) {
  const int me = self.rank();
  const int mi = grid_.row_of(me);
  const int mj = grid_.col_of(me);
  const int p = grid_.pr;

  // Team-indexed panel buffer views for the two broadcasts.
  std::vector<gas::GlobalPtr<double>> row_bufs, col_bufs;
  for (int j = 0; j < p; ++j) {
    row_bufs.push_back(panel_a_[static_cast<std::size_t>(grid_.rank_of(mi, j))]);
  }
  for (int i = 0; i < p; ++i) {
    col_bufs.push_back(panel_b_[static_cast<std::size_t>(grid_.rank_of(i, mj))]);
  }

  double* my_c = tile_c(mi, mj);
  co_await self.barrier();

  for (int s = 0; s < p; ++s) {
    if (vis_) {
      // VIS panel exchange: pull the step's panels straight out of the
      // owners' tiles with packed strided messages — column blocks of the
      // tile, each a rows(width, nrows, row_stride) footprint — into my
      // panel buffers at the same layout. A and B are never written during
      // run(), so direct pulls need no extra synchronization; the panels
      // (and C) come out bit-identical to the broadcast pipeline.
      std::vector<async::future<>> pulls;
      const gas::GlobalPtr<double> pa_dst =
          panel_a_[static_cast<std::size_t>(me)];
      const gas::GlobalPtr<double> a_src = a_.tile_base(
          static_cast<std::size_t>(mi) * tm_, static_cast<std::size_t>(s) * tk_);
      const std::size_t nb_a = std::max<std::size_t>(1, tk_ / 4);
      for (std::size_t c0 = 0; c0 < tk_; c0 += nb_a) {
        const std::size_t w = std::min(nb_a, tk_ - c0);
        const auto spec = gas::StridedSpec::rows(w, tm_, tk_);
        pulls.push_back(self.launch_async(self.copy_strided(
            gas::GlobalPtr<double>{pa_dst.owner, pa_dst.raw + c0}, spec,
            gas::GlobalPtr<double>{a_src.owner, a_src.raw + c0}, spec)));
      }
      const gas::GlobalPtr<double> pb_dst =
          panel_b_[static_cast<std::size_t>(me)];
      const gas::GlobalPtr<double> b_src = b_.tile_base(
          static_cast<std::size_t>(s) * tk_, static_cast<std::size_t>(mj) * tn_);
      const std::size_t nb_b = std::max<std::size_t>(1, tn_ / 4);
      for (std::size_t c0 = 0; c0 < tn_; c0 += nb_b) {
        const std::size_t w = std::min(nb_b, tn_ - c0);
        const auto spec = gas::StridedSpec::rows(w, tk_, tn_);
        pulls.push_back(self.launch_async(self.copy_strided(
            gas::GlobalPtr<double>{pb_dst.owner, pb_dst.raw + c0}, spec,
            gas::GlobalPtr<double>{b_src.owner, b_src.raw + c0}, spec)));
      }
      for (auto& f : pulls) co_await f.wait();
    } else {
      // Owners load their tiles into the panel buffers.
      if (mj == s) {
        std::memcpy(panel_a_[static_cast<std::size_t>(me)].raw, tile_a(mi, s),
                    tm_ * tk_ * sizeof(double));
        co_await self.stream_local(
            static_cast<double>(tm_ * tk_ * sizeof(double)) * 2.0);
      }
      if (mi == s) {
        std::memcpy(panel_b_[static_cast<std::size_t>(me)].raw, tile_b(s, mj),
                    tk_ * tn_ * sizeof(double));
        co_await self.stream_local(
            static_cast<double>(tk_ * tn_ * sizeof(double)) * 2.0);
      }
      // Row-wise broadcast of the A panel, column-wise of the B panel.
      co_await row_teams_[static_cast<std::size_t>(mi)].broadcast(
          self, row_bufs, tm_ * tk_, /*team root=*/s);
      co_await col_teams_[static_cast<std::size_t>(mj)].broadcast(
          self, col_bufs, tk_ * tn_, /*team root=*/s);
    }

    // Local rank-tk update: C += Apanel * Bpanel (really computed).
    const double* pa = panel_a_[static_cast<std::size_t>(me)].raw;
    const double* pb = panel_b_[static_cast<std::size_t>(me)].raw;
    for (std::size_t i = 0; i < tm_; ++i) {
      for (std::size_t kk = 0; kk < tk_; ++kk) {
        const double aik = pa[i * tk_ + kk];
        for (std::size_t j = 0; j < tn_; ++j) {
          my_c[i * tn_ + j] += aik * pb[kk * tn_ + j];
        }
      }
    }
    co_await self.compute_flops(
        2.0 * static_cast<double>(tm_) * tn_ * tk_, /*efficiency=*/0.85);
    co_await self.barrier();
  }
  co_return;
}

std::vector<double> Summa::dense_a() const {
  std::vector<double> out(m_ * k_);
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < k_; ++j) out[i * k_ + j] = *a_.at(i, j).raw;
  }
  return out;
}

std::vector<double> Summa::dense_b() const {
  std::vector<double> out(k_ * n_);
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) out[i * n_ + j] = *b_.at(i, j).raw;
  }
  return out;
}

std::vector<double> Summa::dense_c() const {
  std::vector<double> out(m_ * n_);
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) out[i * n_ + j] = *c_.at(i, j).raw;
  }
  return out;
}

}  // namespace hupc::linalg
