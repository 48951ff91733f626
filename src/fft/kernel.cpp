#include "fft/kernel.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace hupc::fft {

namespace {

/// Stockham autosort pass structure: ping-pongs between data and scratch,
/// no bit-reversal permutation needed.
void stockham(Complex* x, Complex* y, std::size_t n, int sign) {
  std::size_t l = n / 2, m = 1;
  Complex* src = x;
  Complex* dst = y;
  while (l >= 1) {
    for (std::size_t j = 0; j < l; ++j) {
      const double angle =
          sign * 2.0 * std::numbers::pi * static_cast<double>(j) /
          static_cast<double>(2 * l);
      const Complex w(std::cos(angle), std::sin(angle));
      for (std::size_t k = 0; k < m; ++k) {
        const Complex a = src[k + m * j];
        const Complex b = src[k + m * (j + l)];
        dst[k + m * (2 * j)] = a + b;
        dst[k + m * (2 * j + 1)] = w * (a - b);
      }
    }
    std::swap(src, dst);
    l /= 2;
    m *= 2;
  }
  if (src != x) {
    for (std::size_t i = 0; i < n; ++i) x[i] = src[i];
  }
}

}  // namespace

void fft_inplace(std::span<Complex> data, int sign) {
  const std::size_t n = data.size();
  assert(is_pow2(n));
  assert(sign == 1 || sign == -1);
  if (n <= 1) return;
  thread_local std::vector<Complex> scratch;
  if (scratch.size() < n) scratch.resize(n);
  stockham(data.data(), scratch.data(), n, sign);
}

void fft_strided(Complex* data, std::size_t n, std::size_t stride,
                 std::size_t count, std::size_t batch_stride, int sign) {
  assert(is_pow2(n));
  if (n <= 1) return;
  thread_local std::vector<Complex> gather;
  if (gather.size() < n) gather.resize(n);
  for (std::size_t b = 0; b < count; ++b) {
    Complex* base = data + b * batch_stride;
    if (stride == 1) {
      fft_inplace(std::span<Complex>(base, n), sign);
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) gather[i] = base[i * stride];
    fft_inplace(std::span<Complex>(gather.data(), n), sign);
    for (std::size_t i = 0; i < n; ++i) base[i * stride] = gather[i];
  }
}

void fft_2d(Complex* plane, std::size_t nx, std::size_t ny, int sign) {
  // Rows (contiguous, length ny), then columns (stride ny, length nx).
  fft_strided(plane, ny, 1, nx, ny, sign);
  fft_strided(plane, nx, ny, ny, 1, sign);
}

void fft_3d_serial(Complex* grid, std::size_t nx, std::size_t ny,
                   std::size_t nz, int sign) {
  const std::size_t plane = nx * ny;
  for (std::size_t z = 0; z < nz; ++z) {
    fft_2d(grid + z * plane, nx, ny, sign);
  }
  // Along z: one strided transform per (x, y) site.
  fft_strided(grid, nz, plane, plane, 1, sign);
}

}  // namespace hupc::fft
