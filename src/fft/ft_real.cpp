#include "fft/ft_real.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "util/rng.hpp"

namespace hupc::fft {

FtReal::FtReal(gas::Runtime& rt, FtParams grid, CommVariant variant, bool vis)
    : rt_(&rt), grid_(grid), variant_(variant), vis_(vis) {
  const int T = rt.threads();
  if (grid_.nz % T != 0 || grid_.nx % T != 0) {
    throw std::invalid_argument("FtReal: NX and NZ must divide by THREADS");
  }
  if (!is_pow2(static_cast<std::size_t>(grid_.nx)) ||
      !is_pow2(static_cast<std::size_t>(grid_.ny)) ||
      !is_pow2(static_cast<std::size_t>(grid_.nz))) {
    throw std::invalid_argument("FtReal: dimensions must be powers of two");
  }
  pz_ = grid_.nz / T;
  px_ = grid_.nx / T;
  const auto plane = static_cast<std::size_t>(grid_.nx) * grid_.ny;
  in_.reserve(static_cast<std::size_t>(T));
  out_.reserve(static_cast<std::size_t>(T));
  for (int r = 0; r < T; ++r) {
    in_.push_back(rt.heap().alloc<Complex>(r, plane * static_cast<std::size_t>(pz_)));
    out_.push_back(rt.heap().alloc<Complex>(
        r, static_cast<std::size_t>(px_) * grid_.nz * grid_.ny));
  }
}

void FtReal::fill_input(std::uint64_t seed) {
  const auto nx = static_cast<std::size_t>(grid_.nx);
  const auto ny = static_cast<std::size_t>(grid_.ny);
  const auto nz = static_cast<std::size_t>(grid_.nz);
  initial_.resize(nx * ny * nz);
  util::Xoshiro256ss rng(seed);
  for (auto& v : initial_) v = Complex(rng.uniform() - 0.5, rng.uniform() - 0.5);
  // Scatter the dense grid into the owners' slabs.
  const std::size_t plane = nx * ny;
  for (std::size_t z = 0; z < nz; ++z) {
    const int owner = static_cast<int>(z) / pz_;
    const std::size_t zl = z % static_cast<std::size_t>(pz_);
    std::memcpy(in_[static_cast<std::size_t>(owner)].raw + zl * plane,
                initial_.data() + z * plane, plane * sizeof(Complex));
  }
}

sim::Task<void> FtReal::run(gas::Thread& self) {
  const int T = self.threads();
  const int me = self.rank();
  const auto nx = static_cast<std::size_t>(grid_.nx);
  const auto ny = static_cast<std::size_t>(grid_.ny);
  const auto nz = static_cast<std::size_t>(grid_.nz);
  const std::size_t plane = nx * ny;
  Complex* slab = in_[static_cast<std::size_t>(me)].raw;

  co_await self.barrier();

  // Phase A: 2-D FFT over (x, y) on each local plane, charging the kernel's
  // analytic cost; overlap variant sends each plane as soon as it is done.
  std::vector<async::future<>> pending;
  auto send_plane = [&](std::size_t zl) {
    // The piece for peer p is x-rows [p*px, (p+1)*px) of plane zl, laid out
    // contiguously (x-major), destined for out_[p] at [x_local][z][y].
    const std::size_t z = static_cast<std::size_t>(me) * pz_ + zl;
    for (int p = 0; p < T; ++p) {
      Complex* dst_base = out_[static_cast<std::size_t>(p)].raw;
      const Complex* src_rows =
          slab + zl * plane + static_cast<std::size_t>(p) * px_ * ny;
      if (vis_) {
        // VIS exchange: the peer's px_ destination rows (strided by nz*ny
        // per x) move as ONE packed strided message per peer per plane.
        gas::GlobalPtr<Complex> dst{p, dst_base + z * ny};
        pending.push_back(self.launch_async(self.copy_strided(
            dst, gas::StridedSpec::rows(ny, static_cast<std::size_t>(px_), nz * ny),
            src_rows)));
        continue;
      }
      // Destination rows are strided by nz*ny per x; one copy per x-row.
      for (int xl = 0; xl < px_; ++xl) {
        gas::GlobalPtr<Complex> dst{
            p, dst_base + (static_cast<std::size_t>(xl) * nz + z) * ny};
        pending.push_back(
            self.launch_async(self.copy(dst, src_rows + xl * ny, ny)));
      }
    }
  };

  for (std::size_t zl = 0; zl < static_cast<std::size_t>(pz_); ++zl) {
    fft_2d(slab + zl * plane, nx, ny, -1);
    co_await self.compute_flops(fft_flops(static_cast<double>(plane)), 0.22);
    if (variant_ == CommVariant::overlap) send_plane(zl);
  }
  if (variant_ == CommVariant::split_phase) {
    for (std::size_t zl = 0; zl < static_cast<std::size_t>(pz_); ++zl) {
      send_plane(zl);
    }
  }
  for (auto& f : pending) co_await f.wait();
  co_await self.barrier();

  // Phase B: 1-D FFT along z on my x-slab: for each (x_local, y) the z
  // samples are strided by ny in [x_local][z][y].
  Complex* xs = out_[static_cast<std::size_t>(me)].raw;
  for (int xl = 0; xl < px_; ++xl) {
    Complex* base = xs + static_cast<std::size_t>(xl) * nz * ny;
    for (std::size_t y = 0; y < ny; ++y) {
      fft_strided(base + y, nz, ny, 1, 0, -1);
    }
    co_await self.compute_flops(
        static_cast<double>(ny) * fft_flops(static_cast<double>(nz)), 0.22);
  }
  co_await self.barrier();
}

std::vector<Complex> FtReal::gather_result() const {
  const auto nx = static_cast<std::size_t>(grid_.nx);
  const auto ny = static_cast<std::size_t>(grid_.ny);
  const auto nz = static_cast<std::size_t>(grid_.nz);
  std::vector<Complex> dense(nx * ny * nz);
  // out_[r] is [x_local][z][y]; dense is [z][x][y].
  for (int r = 0; r < rt_->threads(); ++r) {
    const Complex* xs = out_[static_cast<std::size_t>(r)].raw;
    for (int xl = 0; xl < px_; ++xl) {
      const std::size_t x = static_cast<std::size_t>(r) * px_ + xl;
      for (std::size_t z = 0; z < nz; ++z) {
        std::memcpy(dense.data() + (z * nx + x) * ny,
                    xs + (static_cast<std::size_t>(xl) * nz + z) * ny,
                    ny * sizeof(Complex));
      }
    }
  }
  return dense;
}

}  // namespace hupc::fft
