// Distributed 3-D FFT with real data — the Chapter 4 application.
//
// Runs the slab-decomposed forward transform on the simulated PGAS runtime
// (both communication variants), verifies the spectrum against the serial
// oracle, then uses it to solve a 3-D Poisson problem spectrally:
//   lap(u) = f  ->  u_hat(k) = -f_hat(k) / |k|^2.
//
//   ./fft3d_solver [--threads N] [--nodes M] [--size 32] [--vis=on|off]
//
// --vis=on routes the transpose exchange through the VIS descriptor API
// (one packed strided message per peer per plane); off keeps the per-row
// contiguous copies. Both must match the serial oracle bit for bit.
#include <cmath>
#include <complex>
#include <cstdio>
#include <numbers>
#include <vector>

#include "fft/ft_real.hpp"
#include "fft/kernel.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

using namespace hupc;  // NOLINT

namespace {

double spectral_poisson_error(std::vector<fft::Complex> f_hat, int n) {
  // Solve in spectrum, inverse-transform, compare against the manufactured
  // solution u(x,y,z) = sin(2 pi x / n) sin(2 pi y / n) sin(2 pi z / n).
  const auto un = static_cast<std::size_t>(n);
  auto wavenumber = [n](std::size_t i) {
    const int k = static_cast<int>(i) <= n / 2 ? static_cast<int>(i)
                                               : static_cast<int>(i) - n;
    return 2.0 * std::numbers::pi * k / n;
  };
  for (std::size_t z = 0; z < un; ++z) {
    for (std::size_t x = 0; x < un; ++x) {
      for (std::size_t y = 0; y < un; ++y) {
        const double kx = wavenumber(x), ky = wavenumber(y), kz = wavenumber(z);
        const double k2 = kx * kx + ky * ky + kz * kz;
        auto& v = f_hat[(z * un + x) * un + y];
        v = k2 == 0.0 ? fft::Complex{0, 0} : -v / k2;
      }
    }
  }
  fft::fft_3d_serial(f_hat.data(), un, un, un, +1);
  const double scale = 1.0 / (static_cast<double>(n) * n * n);
  double max_err = 0.0;
  for (std::size_t z = 0; z < un; ++z) {
    for (std::size_t x = 0; x < un; ++x) {
      for (std::size_t y = 0; y < un; ++y) {
        const double s = 2.0 * std::numbers::pi / n;
        const double expected = -std::sin(s * static_cast<double>(x)) *
                                std::sin(s * static_cast<double>(y)) *
                                std::sin(s * static_cast<double>(z)) /
                                (3.0 * s * s);
        const auto got = f_hat[(z * un + x) * un + y] * scale;
        max_err = std::max(max_err, std::abs(got.real() - expected));
      }
    }
  }
  return max_err;
}

int run(const util::Cli& cli) {
  const int threads = cli.get_int_in<int>("threads", 4);
  const int nodes = cli.get_int_in<int>("nodes", 2);
  const int n = cli.get_int_in<int>("size", 32);
  const std::string vis_opt = cli.choice("vis", "off", {"on", "off"});
  cli.reject_unread("fft3d_solver");
  const bool vis = vis_opt == "on";

  for (const auto variant :
       {fft::CommVariant::split_phase, fft::CommVariant::overlap}) {
    sim::Engine engine;
    gas::Runtime rt(engine, gas::preset_config("lehman", nodes, threads));

    fft::FtParams grid{n, n, n, 1, "example"};
    fft::FtReal ft(rt, grid, variant, vis);
    ft.fill_input(2026);

    // Serial oracle of the same input.
    std::vector<fft::Complex> oracle = ft.initial_grid();
    fft::fft_3d_serial(oracle.data(), static_cast<std::size_t>(n),
                       static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                       -1);

    rt.spmd([&ft](gas::Thread& t) -> sim::Task<void> { co_await ft.run(t); });
    rt.run_to_completion();

    const auto result = ft.gather_result();
    double max_diff = 0.0;
    for (std::size_t i = 0; i < result.size(); ++i) {
      max_diff = std::max(max_diff, std::abs(result[i] - oracle[i]));
    }
    std::printf(
        "%-12s %d^3 on %d threads/%d nodes (vis %s): max |distributed - "
        "serial| = %.2e, virtual time %.3f ms, %llu network messages\n",
        variant == fft::CommVariant::split_phase ? "split-phase" : "overlap", n,
        threads, nodes, vis_opt.c_str(), max_diff,
        sim::to_seconds(engine.now()) * 1e3,
        static_cast<unsigned long long>(rt.network().total_messages()));
    if (max_diff > 1e-8) return 1;
  }

  // Spectral Poisson solve with a manufactured RHS, all-serial demo of the
  // kernel library itself.
  {
    const auto un = static_cast<std::size_t>(n);
    std::vector<fft::Complex> f(un * un * un);
    const double s = 2.0 * std::numbers::pi / n;
    for (std::size_t z = 0; z < un; ++z) {
      for (std::size_t x = 0; x < un; ++x) {
        for (std::size_t y = 0; y < un; ++y) {
          f[(z * un + x) * un + y] = std::sin(s * static_cast<double>(x)) *
                                     std::sin(s * static_cast<double>(y)) *
                                     std::sin(s * static_cast<double>(z));
        }
      }
    }
    fft::fft_3d_serial(f.data(), un, un, un, -1);
    const double err = spectral_poisson_error(std::move(f), n);
    std::printf("poisson      spectral solve max error = %.2e\n", err);
    if (err > 1e-10) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("fft3d_solver", argc, argv, run);
}
