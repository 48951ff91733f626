#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "fft/kernel.hpp"
#include "util/rng.hpp"

namespace {

using hupc::fft::Complex;
using hupc::fft::fft_2d;
using hupc::fft::fft_3d_serial;
using hupc::fft::fft_flops;
using hupc::fft::fft_inplace;
using hupc::fft::fft_strided;
using hupc::fft::is_pow2;

/// Naive O(n^2) DFT: the oracle the fast transforms are checked against.
std::vector<Complex> dft_naive(std::span<const Complex> in, int sign) {
  const std::size_t n = in.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k * j % n) /
                           static_cast<double>(n);
      acc += in[j] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  hupc::util::Xoshiro256ss rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex(rng.uniform() - 0.5, rng.uniform() - 0.5);
  return v;
}

double max_diff(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 17 + n);
  const auto expected = dft_naive(signal, -1);
  fft_inplace(signal, -1);
  EXPECT_LT(max_diff(signal, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizes, RoundTripRecoversInput) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 5 + n);
  auto work = original;
  fft_inplace(work, -1);
  fft_inplace(work, +1);
  for (auto& v : work) v /= static_cast<double>(n);
  EXPECT_LT(max_diff(work, original), 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> v(64, Complex(0, 0));
  v[0] = Complex(1, 0);
  fft_inplace(v, -1);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, LinearityProperty) {
  const std::size_t n = 128;
  auto a = random_signal(n, 1), b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  fft_inplace(a, -1);
  fft_inplace(b, -1);
  fft_inplace(sum, -1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  const std::size_t n = 256;
  auto v = random_signal(n, 9);
  double time_energy = 0;
  for (const auto& x : v) time_energy += std::norm(x);
  fft_inplace(v, -1);
  double freq_energy = 0;
  for (const auto& x : v) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

TEST(Fft, StridedMatchesContiguous) {
  const std::size_t n = 64, stride = 5;
  auto packed = random_signal(n, 3);
  std::vector<Complex> sparse(n * stride, Complex(7, 7));
  for (std::size_t i = 0; i < n; ++i) sparse[i * stride] = packed[i];
  fft_inplace(packed, -1);
  fft_strided(sparse.data(), n, stride, 1, 0, -1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(sparse[i * stride] - packed[i]), 1e-10);
  }
  // Untouched gaps stay untouched.
  EXPECT_EQ(sparse[1], Complex(7, 7));
}

TEST(Fft, TwoDRoundTrip) {
  const std::size_t nx = 16, ny = 32;
  auto plane = random_signal(nx * ny, 21);
  const auto original = plane;
  fft_2d(plane.data(), nx, ny, -1);
  fft_2d(plane.data(), nx, ny, +1);
  for (auto& v : plane) v /= static_cast<double>(nx * ny);
  EXPECT_LT(max_diff(plane, original), 1e-9);
}

TEST(Fft, ThreeDRoundTrip) {
  const std::size_t nx = 8, ny = 16, nz = 4;
  auto grid = random_signal(nx * ny * nz, 33);
  const auto original = grid;
  fft_3d_serial(grid.data(), nx, ny, nz, -1);
  fft_3d_serial(grid.data(), nx, ny, nz, +1);
  for (auto& v : grid) v /= static_cast<double>(nx * ny * nz);
  EXPECT_LT(max_diff(grid, original), 1e-9);
}

TEST(Fft, ThreeDSingleModeIsComplexExponential) {
  // A pure frequency mode must transform to a single spike.
  const std::size_t nx = 8, ny = 8, nz = 8;
  std::vector<Complex> grid(nx * ny * nz);
  const std::size_t kx = 2, ky = 3, kz = 1;
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t x = 0; x < nx; ++x) {
      for (std::size_t y = 0; y < ny; ++y) {
        // e^{+i 2 pi k.x/N}: the forward transform (sign -1) collapses this
        // to a single spike at k.
        const double phase =
            2.0 * M_PI *
            (static_cast<double>(kx * x) / nx + static_cast<double>(ky * y) / ny +
             static_cast<double>(kz * z) / nz);
        grid[(z * nx + x) * ny + y] = Complex(std::cos(phase), std::sin(phase));
      }
    }
  }
  fft_3d_serial(grid.data(), nx, ny, nz, -1);
  const double total = static_cast<double>(nx * ny * nz);
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t x = 0; x < nx; ++x) {
      for (std::size_t y = 0; y < ny; ++y) {
        const double expected =
            (x == kx && y == ky && z == kz) ? total : 0.0;
        EXPECT_NEAR(std::abs(grid[(z * nx + x) * ny + y]), expected, 1e-8)
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST(Fft, FlopsFormula) {
  EXPECT_DOUBLE_EQ(fft_flops(8), 5.0 * 8 * 3);
  EXPECT_DOUBLE_EQ(fft_flops(1024), 5.0 * 1024 * 10);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

}  // namespace
