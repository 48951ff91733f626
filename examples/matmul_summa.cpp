// Distributed matrix multiply (SUMMA) on overlapping row/column thread
// groups — multidimensional blocking meets Chapter 3's thread groups.
//
//   ./matmul_summa [--grid 2] [--size 64] [--nodes 2] [--vis=on|off]
//
// --vis=on pulls the step panels straight from the owners' tiles with
// packed strided (VIS) messages; off uses the owner-load + team-broadcast
// pipeline. C is bit-identical either way.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gas/gas.hpp"
#include "linalg/summa.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

using namespace hupc;  // NOLINT

namespace {

int run(const util::Cli& cli) {
  const int p = cli.get_int_in<int>("grid", 2);
  const auto size = cli.get_int_in<std::size_t>("size", 64);
  const int nodes = cli.get_int_in<int>("nodes", 2);
  const std::string vis_opt = cli.choice("vis", "off", {"on", "off"});
  cli.reject_unread("matmul_summa");

  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("lehman", nodes, p * p));

  linalg::Summa summa(rt, linalg::ProcessGrid{p, p}, size, size, size,
                      vis_opt == "on");
  summa.fill(2026);
  const auto a = summa.dense_a();
  const auto b = summa.dense_b();

  rt.spmd([&summa](gas::Thread& t) -> sim::Task<void> {
    co_await summa.run(t);
  });
  rt.run_to_completion();

  // Verify against the serial triple loop.
  const auto c = summa.dense_c();
  double max_err = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      double ref = 0.0;
      for (std::size_t k = 0; k < size; ++k) {
        ref += a[i * size + k] * b[k * size + j];
      }
      max_err = std::max(max_err, std::abs(c[i * size + j] - ref));
    }
  }

  const double flops = 2.0 * static_cast<double>(size) * size * size;
  const double secs = sim::to_seconds(engine.now());
  std::printf("SUMMA %zux%zu on a %dx%d grid (%d nodes, vis %s): max err "
              "%.2e, %.3f ms virtual, %.2f GF/s effective, %llu messages\n",
              size, size, p, p, nodes, vis_opt.c_str(), max_err, secs * 1e3,
              flops / secs / 1e9,
              static_cast<unsigned long long>(rt.network().total_messages()));
  return max_err < 1e-9 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("matmul_summa", argc, argv, run);
}
