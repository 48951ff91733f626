// 1-D heat diffusion with halo exchange — a teams + privatization showcase.
//
// The rod is block-distributed over UPC threads. Each step every thread
// updates its block with a 3-point stencil; halo cells come from the
// neighbours either through upc-style memgets (portable) or through
// privatized pointers when the neighbour is shared-memory reachable (the
// thesis's pointer-table optimization). Both variants must agree with a
// serial reference to machine precision, and the privatized variant is
// faster in virtual time.
//
// With --async=on a third variant runs: halos are PUSHED with launched
// copies into neighbour mailboxes and the interior update overlaps the transfers
// (split-phase producer-push, thesis §4.2's overlap idiom on the new
// completion layer). It must match the same serial reference.
//
// A team-scoped reduction epilogue sums the rod's energy through the
// algorithm-selecting collectives (gas::reduce_gather over a world team,
// plus per-node/per-socket subteam sums under --team-split), verified
// against a host-side fold.
//
// With --vis=on a 2-D column-distributed stencil runs as well: each rank
// owns a vertical strip of the plate, so the halo a neighbour needs is an
// edge COLUMN — ny elements strided by the strip width. The exchange runs
// twice, once with per-element puts and once as a single packed
// gas::copy_strided message per neighbour, and the two grids must be
// bit-identical after every step.
//
//   ./heat_stencil [--threads N] [--nodes M] [--cells 4096] [--steps 200]
//                  [--async=on|off] [--coll-algo=auto|flat|hier|ring|dissem]
//                  [--team-split=none|node|socket] [--vis=on|off]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "async/future.hpp"
#include "core/core.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

using namespace hupc;  // NOLINT

namespace {

constexpr double kAlpha = 0.25;  // diffusion number (stable for explicit)

std::vector<double> serial_reference(std::size_t cells, int steps) {
  std::vector<double> u(cells), next(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    u[i] = i < cells / 2 ? 1.0 : 0.0;  // step initial condition
  }
  for (int s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < cells; ++i) {
      const double left = i == 0 ? u[0] : u[i - 1];
      const double right = i == cells - 1 ? u[cells - 1] : u[i + 1];
      next[i] = u[i] + kAlpha * (left - 2.0 * u[i] + right);
    }
    std::swap(u, next);
  }
  return u;
}

int run(const util::Cli& cli) {
  const int threads = cli.get_int_in<int>("threads", 8);
  const int nodes = cli.get_int_in<int>("nodes", 2);
  const auto cells = cli.get_int_in<std::size_t>("cells", 4096);
  const int steps = cli.get_int_in<int>("steps", 200);
  const bool run_async = cli.choice("async", "off", {"on", "off"}) == "on";
  const gas::CollAlgo coll_algo = *gas::parse_coll_algo(cli.choice(
      "coll-algo", "auto", {"auto", "flat", "hier", "ring", "dissem"}));
  const std::string team_split =
      cli.choice("team-split", "none", {"none", "node", "socket"});
  const bool vis = cli.choice("vis", "off", {"on", "off"}) == "on";
  cli.reject_unread("heat_stencil");
  if (threads < 1 || cells % static_cast<std::size_t>(threads) != 0) {
    throw std::invalid_argument("--cells " + std::to_string(cells) +
                                " must divide by --threads " +
                                std::to_string(threads));
  }
  const std::size_t per = cells / static_cast<std::size_t>(threads);

  const auto reference = serial_reference(cells, steps);

  for (const bool privatized : {false, true}) {
    sim::Engine engine;
    gas::Runtime rt(engine, gas::preset_config("lehman", nodes, threads));

    // Two block-distributed buffers (ping-pong).
    auto u = rt.heap().all_alloc<double>(cells, per);
    auto v = rt.heap().all_alloc<double>(cells, per);

    rt.spmd([&, privatized](gas::Thread& t) -> sim::Task<void> {
      const auto base = static_cast<std::size_t>(t.rank()) * per;
      double* mine_u = u.slice(t.rank());
      double* mine_v = v.slice(t.rank());
      for (std::size_t i = 0; i < per; ++i) {
        mine_u[i] = base + i < cells / 2 ? 1.0 : 0.0;
      }
      co_await t.barrier();

      double* cur = mine_u;
      double* nxt = mine_v;
      auto cur_arr = &u;
      for (int s = 0; s < steps; ++s) {
        // Halo exchange: one value from each side.
        double left_halo = cur[0], right_halo = cur[per - 1];
        if (t.rank() > 0) {
          const auto idx = base - 1;
          if (double* p = privatized ? t.cast(cur_arr->at(idx)) : nullptr) {
            left_halo = *p;
            co_await t.compute(2e-9);  // a plain load
          } else {
            left_halo = co_await t.get(cur_arr->at(idx));
          }
        }
        if (t.rank() + 1 < t.threads()) {
          const auto idx = base + per;
          if (double* p = privatized ? t.cast(cur_arr->at(idx)) : nullptr) {
            right_halo = *p;
            co_await t.compute(2e-9);
          } else {
            right_halo = co_await t.get(cur_arr->at(idx));
          }
        }
        // Everyone's halo reads must finish before anyone overwrites the
        // buffer being read (the classic second barrier of ping-pong codes).
        co_await t.barrier();
        // Stencil update (real arithmetic + charged compute).
        for (std::size_t i = 0; i < per; ++i) {
          const double l = i == 0 ? left_halo : cur[i - 1];
          const double r = i == per - 1 ? right_halo : cur[i + 1];
          nxt[i] = cur[i] + kAlpha * (l - 2.0 * cur[i] + r);
        }
        co_await t.compute(static_cast<double>(per) * 4.0 /
                           (t.runtime().config().machine.core_flops() * 0.5));
        co_await t.barrier();
        std::swap(cur, nxt);
        cur_arr = cur_arr == &u ? &v : &u;
      }
      co_return;
    });
    rt.run_to_completion();

    // Verify against the serial reference.
    const auto& result_arr = steps % 2 == 0 ? u : v;
    double max_err = 0.0;
    for (int r = 0; r < threads; ++r) {
      const double* slab = result_arr.slice(r);
      for (std::size_t i = 0; i < per; ++i) {
        max_err = std::max(
            max_err,
            std::abs(slab[i] - reference[static_cast<std::size_t>(r) * per + i]));
      }
    }
    std::printf("%-12s %zu cells, %d steps, %d threads: max err %.2e, "
                "virtual time %.3f ms\n",
                privatized ? "privatized" : "upc-get", cells, steps, threads,
                max_err, sim::to_seconds(engine.now()) * 1e3);
    if (max_err > 1e-12) return 1;
  }

  if (run_async) {
    // Producer-push variant on the completion layer: each rank PUSHES its
    // edge cells into neighbour mailboxes with launch_async(copy), updates its
    // interior while the puts are in flight, then settles the futures with
    // when_all before touching the boundary cells.
    sim::Engine engine;
    gas::Runtime rt(engine, gas::preset_config("lehman", nodes, threads));

    auto u = rt.heap().all_alloc<double>(cells, per);
    auto v = rt.heap().all_alloc<double>(cells, per);
    // Per-rank halo in-boxes: lbox[r] holds r's left halo (written by
    // r-1), rbox[r] its right halo (written by r+1).
    auto lbox = rt.heap().all_alloc<double>(static_cast<std::size_t>(threads),
                                            1);
    auto rbox = rt.heap().all_alloc<double>(static_cast<std::size_t>(threads),
                                            1);

    rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
      const auto base = static_cast<std::size_t>(t.rank()) * per;
      double* mine_u = u.slice(t.rank());
      double* mine_v = v.slice(t.rank());
      for (std::size_t i = 0; i < per; ++i) {
        mine_u[i] = base + i < cells / 2 ? 1.0 : 0.0;
      }
      co_await t.barrier();

      double* cur = mine_u;
      double* nxt = mine_v;
      for (int s = 0; s < steps; ++s) {
        // Snapshot the edges (the puts must not observe this step's
        // updates) and push them to the neighbours' mailboxes.
        const double left_edge = cur[0];
        const double right_edge = cur[per - 1];
        std::vector<async::future<>> puts;
        if (t.rank() > 0) {
          puts.push_back(
              t.launch_async(t.copy(rbox.at(t.rank() - 1), &left_edge, 1)));
        }
        if (t.rank() + 1 < t.threads()) {
          puts.push_back(
              t.launch_async(t.copy(lbox.at(t.rank() + 1), &right_edge, 1)));
        }
        // Interior update overlaps the in-flight halo puts.
        for (std::size_t i = 1; i + 1 < per; ++i) {
          nxt[i] = cur[i] + kAlpha * (cur[i - 1] - 2.0 * cur[i] + cur[i + 1]);
        }
        co_await t.compute(static_cast<double>(per) * 4.0 /
                           (t.runtime().config().machine.core_flops() * 0.5));
        co_await async::when_all(std::move(puts)).wait();
        co_await t.barrier();  // every mailbox is filled past this point
        const double left_halo =
            t.rank() > 0 ? *lbox.at(t.rank()).raw : cur[0];
        const double right_halo =
            t.rank() + 1 < t.threads() ? *rbox.at(t.rank()).raw : cur[per - 1];
        nxt[0] = cur[0] + kAlpha * (left_halo - 2.0 * cur[0] +
                                    (per > 1 ? cur[1] : right_halo));
        if (per > 1) {
          nxt[per - 1] = cur[per - 1] + kAlpha * (cur[per - 2] -
                                                  2.0 * cur[per - 1] +
                                                  right_halo);
        }
        // Nobody may refill a mailbox before its owner consumed it.
        co_await t.barrier();
        std::swap(cur, nxt);
      }
      co_return;
    });
    rt.run_to_completion();

    const auto& result_arr = steps % 2 == 0 ? u : v;
    double max_err = 0.0;
    for (int r = 0; r < threads; ++r) {
      const double* slab = result_arr.slice(r);
      for (std::size_t i = 0; i < per; ++i) {
        max_err = std::max(
            max_err,
            std::abs(slab[i] - reference[static_cast<std::size_t>(r) * per + i]));
      }
    }
    std::printf("%-12s %zu cells, %d steps, %d threads: max err %.2e, "
                "virtual time %.3f ms\n",
                "async-halo", cells, steps, threads, max_err,
                sim::to_seconds(engine.now()) * 1e3);
    if (max_err > 1e-12) return 1;
  }

  // --- Team-scoped energy reduction (teams + selecting collectives) -----
  // The rod's total energy summed two ways: globally through the world
  // team's collective tree (gas::reduce_gather — the algorithm follows
  // --coll-algo through the selector), and per-subteam under --team-split
  // (world + subteams overlap on every rank, exercising per-(team,op)
  // collective matching). Both verified against host-side folds.
  {
    sim::Engine engine;
    gas::Runtime rt(engine, gas::preset_config("lehman", nodes, threads));
    auto rod = rt.heap().all_alloc<double>(cells, per);

    std::vector<int> everyone(static_cast<std::size_t>(threads));
    std::iota(everyone.begin(), everyone.end(), 0);
    gas::CollectiveSelector sel;
    sel.override_algo = coll_algo;
    core::Team world(rt, std::move(everyone), sel);
    std::vector<core::Team> subteams;
    if (team_split == "node") subteams = world.split_by_node();
    if (team_split == "socket") subteams = world.split_by_socket();

    std::vector<double> global_sum(static_cast<std::size_t>(threads), 0.0);
    std::vector<double> team_sum(static_cast<std::size_t>(threads), 0.0);
    const auto plus = [](double a, double b) { return a + b; };
    rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
      const auto base = static_cast<std::size_t>(t.rank()) * per;
      double* mine = rod.slice(t.rank());
      for (std::size_t i = 0; i < per; ++i) {
        mine[i] = base + i < cells / 2 ? 1.0 : 0.0;
      }
      co_await t.barrier();
      global_sum[static_cast<std::size_t>(t.rank())] =
          co_await gas::reduce_gather(t, world, rod, 0.0, plus);
      for (std::size_t k = 0; k < subteams.size(); ++k) {
        if (!subteams[k].contains(t.rank())) continue;
        double local = 0.0;
        for (std::size_t i = 0; i < per; ++i) local += mine[i];
        team_sum[static_cast<std::size_t>(t.rank())] =
            co_await subteams[k].allreduce_value(t, local, plus);
      }
      co_return;
    });
    rt.run_to_completion();

    const double expected = static_cast<double>(cells / 2);
    double max_err = 0.0;
    for (int r = 0; r < threads; ++r) {
      max_err = std::max(
          max_err,
          std::abs(global_sum[static_cast<std::size_t>(r)] - expected));
    }
    for (const auto& st : subteams) {
      double host = 0.0;
      for (int r : st.members()) {
        for (std::size_t i = 0; i < per; ++i) {
          host += static_cast<std::size_t>(r) * per + i < cells / 2 ? 1.0 : 0.0;
        }
      }
      for (int r : st.members()) {
        max_err = std::max(
            max_err, std::abs(team_sum[static_cast<std::size_t>(r)] - host));
      }
    }
    std::printf("%-12s %zu cells, %d threads: energy err %.2e "
                "(coll-algo %s, team-split %s, %zu subteams)\n",
                "team-reduce", cells, threads, max_err,
                gas::coll_algo_name(coll_algo), team_split.c_str(),
                subteams.size());
    if (max_err > 1e-9) return 1;
  }

  // --- 2-D column-distributed stencil (VIS halo exchange) ---------------
  // Each rank owns a ny2 x w2 vertical strip (row-major), so the halo a
  // neighbour needs is an edge column: ny2 elements strided by w2. The
  // element-loop variant pushes it with one put per row; the VIS variant
  // ships the same column as ONE packed strided message per neighbour.
  // Same arithmetic, same order — the final grids must be bit-identical.
  if (vis) {
    constexpr std::size_t kW2 = 8;       // columns per rank
    constexpr std::size_t kNy2 = 32;     // rows
    constexpr int kSteps2 = 10;
    constexpr double kAlpha2 = 0.125;
    auto run_2d = [&](bool use_vis) {
      sim::Engine engine;
      gas::Runtime rt(engine, gas::preset_config("lehman", nodes, threads));

      std::vector<gas::GlobalPtr<double>> strip, lhalo, rhalo;
      for (int r = 0; r < threads; ++r) {
        strip.push_back(rt.heap().alloc<double>(r, kNy2 * kW2));
        lhalo.push_back(rt.heap().alloc<double>(r, kNy2));
        rhalo.push_back(rt.heap().alloc<double>(r, kNy2));
      }
      rt.spmd([&, use_vis](gas::Thread& t) -> sim::Task<void> {
        const int me = t.rank();
        const int T = t.threads();
        double* cur = strip[static_cast<std::size_t>(me)].raw;
        for (std::size_t y = 0; y < kNy2; ++y) {
          for (std::size_t x = 0; x < kW2; ++x) {
            const std::size_t gx = static_cast<std::size_t>(me) * kW2 + x;
            cur[y * kW2 + x] =
                static_cast<double>((y * 31 + gx * 17) % 7) * 0.125;
          }
        }
        std::vector<double> next(kNy2 * kW2);
        co_await t.barrier();

        for (int s = 0; s < kSteps2; ++s) {
          // Push my edge columns into the neighbours' halo boxes.
          if (me > 0) {
            gas::GlobalPtr<double> box = rhalo[static_cast<std::size_t>(me - 1)];
            if (use_vis) {
              co_await t.copy_strided(box, gas::StridedSpec::contiguous(kNy2),
                                      cur, gas::StridedSpec::rows(1, kNy2, kW2));
            } else {
              for (std::size_t y = 0; y < kNy2; ++y) {
                co_await t.put(gas::GlobalPtr<double>{box.owner, box.raw + y},
                               cur[y * kW2]);
              }
            }
          }
          if (me + 1 < T) {
            gas::GlobalPtr<double> box = lhalo[static_cast<std::size_t>(me + 1)];
            if (use_vis) {
              co_await t.copy_strided(box, gas::StridedSpec::contiguous(kNy2),
                                      cur + (kW2 - 1),
                                      gas::StridedSpec::rows(1, kNy2, kW2));
            } else {
              for (std::size_t y = 0; y < kNy2; ++y) {
                co_await t.put(gas::GlobalPtr<double>{box.owner, box.raw + y},
                               cur[y * kW2 + kW2 - 1]);
              }
            }
          }
          co_await t.barrier();  // every halo box is filled
          const double* lh = lhalo[static_cast<std::size_t>(me)].raw;
          const double* rh = rhalo[static_cast<std::size_t>(me)].raw;
          for (std::size_t y = 0; y < kNy2; ++y) {
            for (std::size_t x = 0; x < kW2; ++x) {
              const double c = cur[y * kW2 + x];
              const double up = y > 0 ? cur[(y - 1) * kW2 + x] : c;
              const double dn = y + 1 < kNy2 ? cur[(y + 1) * kW2 + x] : c;
              const double lf = x > 0 ? cur[y * kW2 + x - 1]
                                      : (me > 0 ? lh[y] : c);
              const double rg = x + 1 < kW2 ? cur[y * kW2 + x + 1]
                                            : (me + 1 < T ? rh[y] : c);
              next[y * kW2 + x] = c + kAlpha2 * (up + dn + lf + rg - 4.0 * c);
            }
          }
          co_await t.compute(static_cast<double>(kNy2 * kW2) * 6.0 /
                             (t.runtime().config().machine.core_flops() * 0.5));
          std::memcpy(cur, next.data(), kNy2 * kW2 * sizeof(double));
          // Nobody may refill a halo box before its owner consumed it.
          co_await t.barrier();
        }
        co_return;
      });
      rt.run_to_completion();

      std::vector<double> dense(kNy2 * kW2 * static_cast<std::size_t>(threads));
      for (int r = 0; r < threads; ++r) {
        const double* s = strip[static_cast<std::size_t>(r)].raw;
        for (std::size_t y = 0; y < kNy2; ++y) {
          std::memcpy(dense.data() +
                          (y * static_cast<std::size_t>(threads) +
                           static_cast<std::size_t>(r)) * kW2,
                      s + y * kW2, kW2 * sizeof(double));
        }
      }
      return dense;
    };

    const auto loop_grid = run_2d(false);
    const auto vis_grid = run_2d(true);
    const bool identical =
        std::memcmp(loop_grid.data(), vis_grid.data(),
                    loop_grid.size() * sizeof(double)) == 0;
    std::printf("%-12s %zux%zu plate, %d steps, %d threads: vis halo %s\n",
                "vis-2d", kNy2, kW2 * static_cast<std::size_t>(threads),
                kSteps2, threads,
                identical ? "bit-identical to element loop" : "MISMATCH");
    if (!identical) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("heat_stencil", argc, argv, run);
}
