// Complex FFT kernels (the FFTW stand-in): iterative Stockham autosort
// radix-2, power-of-two sizes, forward and inverse, contiguous and strided
// batched forms — everything the NAS FT pencil/plane decomposition needs.
// A naive DFT is provided as the test oracle.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace hupc::fft {

using Complex = std::complex<double>;

/// True if n is a power of two (and at least 1).
[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// In-place forward (sign=-1) or inverse (sign=+1) FFT of length-n
/// contiguous data. Inverse is unnormalized (scale by 1/n yourself, as in
/// NAS FT). n must be a power of two.
void fft_inplace(std::span<Complex> data, int sign);

/// Batched strided FFT: `count` transforms of length n, where transform b's
/// element i lives at data[b * batch_stride + i * stride].
void fft_strided(Complex* data, std::size_t n, std::size_t stride,
                 std::size_t count, std::size_t batch_stride, int sign);

/// 2-D FFT of an nx-by-ny row-major plane (contiguous), both dimensions.
void fft_2d(Complex* plane, std::size_t nx, std::size_t ny, int sign);

/// Serial 3-D FFT of a [z][x][y] row-major grid (all dims powers of two):
/// the single-node oracle the distributed transform is verified against.
void fft_3d_serial(Complex* grid, std::size_t nx, std::size_t ny,
                   std::size_t nz, int sign);

/// Analytic operation count for an n-point complex FFT (5 n log2 n), used
/// by the virtual-time cost models.
[[nodiscard]] constexpr double fft_flops(double n) noexcept {
  double log2n = 0;
  for (double m = n; m > 1; m /= 2) log2n += 1;
  return 5.0 * n * log2n;
}

}  // namespace hupc::fft
