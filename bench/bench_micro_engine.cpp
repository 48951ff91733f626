// Microbenchmarks of the substrate primitives: event queue throughput,
// coroutine spawn/switch, fluid-link recomputation, global-pointer
// arithmetic, SHA-1 (the UTS per-node cost), and FFT kernels. These are
// the "is the simulator itself fast enough" numbers.
//
// Unlike the simulation benches, these measure *host wall-clock* time, so
// every metric is Kind::measured — the regression gate reports them but
// never hard-fails on them (they are machine- and load-dependent). Each
// repetition times a fixed iteration count; register with one warmup
// repetition to get caches and the allocator warm.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "async/future.hpp"
#include "fft/kernel.hpp"
#include "gas/heap.hpp"
#include "perf/runner.hpp"
#include "sim/sim.hpp"
#include "uts/sha1.hpp"
#include "uts/tree.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace hupc;  // NOLINT

using Clock = std::chrono::steady_clock;

/// Report wall-clock `ns/op` (gated report-only) for `ops` operations that
/// took `seconds`.
void report_ns_per_op(perf::Context& ctx, double seconds, std::uint64_t ops) {
  ctx.set_config("ops", std::to_string(ops));
  ctx.report("ns_per_op", seconds * 1e9 / static_cast<double>(ops), "ns",
             perf::Direction::lower_is_better, perf::Kind::measured);
}

PERF_BENCHMARK("micro.engine.schedule_run", .warmup = 1) {
  const int n = ctx.smoke() ? 20000 : 100000;
  const auto t0 = Clock::now();
  sim::Engine e;
  for (int i = 0; i < n; ++i) {
    sim::call_at(e, i, [] {});
  }
  e.run();
  const std::chrono::duration<double> dt = Clock::now() - t0;
  report_ns_per_op(ctx, dt.count(), static_cast<std::uint64_t>(n));
}

// Push/pop pairs on a deep heap: about 16 k events stay pending, and each
// dispatched event queues itself again at a random future time, so every
// pop sifts down and every push sifts up through a heap many 4-child
// groups deep (schedule_run's monotone times never sift). Reported per
// dispatched event.
PERF_BENCHMARK("micro.engine.deep_heap", .warmup = 1) {
  struct Churn : sim::EventNode {
    sim::Engine* engine;
    util::Xoshiro256ss rng{7};
    std::uint64_t left;
    Churn(sim::Engine& e, std::uint64_t n)
        : EventNode{&fire}, engine(&e), left(n) {}
    static void fire(EventNode* self, std::uint64_t /*seq*/) {
      auto& c = *static_cast<Churn*>(self);
      if (c.left == 0) return;
      --c.left;
      c.engine->schedule_node(
          c.engine->now() + 1 + static_cast<sim::Time>(c.rng.below(1 << 20)),
          &c);
    }
  };
  constexpr int kPending = 16 * 1024;
  const std::uint64_t n = ctx.smoke() ? 200'000 : 2'000'000;
  sim::Engine e;
  Churn churn(e, n);
  for (int i = 0; i < kPending; ++i) {
    e.schedule_node(1 + static_cast<sim::Time>(churn.rng.below(1 << 20)),
                    &churn);
  }
  const auto t0 = Clock::now();
  e.run();
  const std::chrono::duration<double> dt = Clock::now() - t0;
  report_ns_per_op(ctx, dt.count(), e.events_executed());
}

PERF_BENCHMARK("micro.engine.coroutine_spawn_join", .warmup = 1) {
  const int n = ctx.smoke() ? 5000 : 20000;
  const auto t0 = Clock::now();
  sim::Engine e;
  for (int i = 0; i < n; ++i) {
    sim::spawn(e, [](sim::Engine& eng) -> sim::Task<void> {
      co_await sim::delay(eng, 1);
    }(e));
  }
  e.run();
  const std::chrono::duration<double> dt = Clock::now() - t0;
  report_ns_per_op(ctx, dt.count(), static_cast<std::uint64_t>(n));
}

// Zero-delay coroutine wakeups, the bulk of a simulation's events: each
// round a driver fulfils a promise all `n` workers wait on, collects one
// sim::Semaphore permit from each, fulfils a second promise they all wait
// on and collects a permit again (so every worker is parked before the
// next broadcast). Reported per dispatched engine event.
PERF_BENCHMARK("micro.engine.wakeup_storm", .warmup = 1) {
  const int n = 64;
  const int rounds = ctx.smoke() ? 200 : 1000;
  const auto t0 = Clock::now();
  sim::Engine e;
  sim::Semaphore done(e, 0);
  std::vector<async::promise<>> go;
  std::vector<async::promise<>> ack;
  for (int r = 0; r < rounds; ++r) {
    go.emplace_back(e);
    ack.emplace_back(e);
  }
  for (int i = 0; i < n; ++i) {
    sim::spawn(e, [](std::vector<async::promise<>>& go_,
                     std::vector<async::promise<>>& ack_,
                     sim::Semaphore& done_) -> sim::Task<void> {
      for (std::size_t r = 0; r < go_.size(); ++r) {
        co_await go_[r].get_future();
        done_.release();
        co_await ack_[r].get_future();
        done_.release();
      }
    }(go, ack, done));
  }
  sim::spawn(e, [](std::vector<async::promise<>>& go_,
                   std::vector<async::promise<>>& ack_, sim::Semaphore& done_,
                   int workers) -> sim::Task<void> {
    for (std::size_t r = 0; r < go_.size(); ++r) {
      go_[r].set_value();
      for (int i = 0; i < workers; ++i) co_await done_.acquire();
      ack_[r].set_value();
      for (int i = 0; i < workers; ++i) co_await done_.acquire();
    }
  }(go, ack, done, n));
  e.run();
  const std::chrono::duration<double> dt = Clock::now() - t0;
  report_ns_per_op(ctx, dt.count(), e.events_executed());
}

PERF_BENCHMARK("micro.sim.fluid_link_contention", .warmup = 1) {
  const int flows = 256;
  const int rounds = ctx.smoke() ? 4 : 16;
  const auto t0 = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    sim::Engine e;
    sim::FluidLink link(e, 1e9);
    for (int i = 0; i < flows; ++i) {
      sim::spawn(e, [](sim::FluidLink& l) -> sim::Task<void> {
        co_await l.transfer(1e6);
      }(link));
    }
    e.run();
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  report_ns_per_op(ctx, dt.count(),
                   static_cast<std::uint64_t>(flows) * rounds);
}

PERF_BENCHMARK("micro.gas.shared_array_at", .warmup = 1) {
  const std::uint64_t n = ctx.smoke() ? 1'000'000 : 8'000'000;
  gas::SharedHeap heap(64);
  auto arr = heap.all_alloc<double>(1 << 20, 64);
  std::size_t i = 0;
  std::uintptr_t sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t op = 0; op < n; ++op) {
    sink ^= reinterpret_cast<std::uintptr_t>(arr.at(i).raw);
    i = (i + 977) & ((1 << 20) - 1);
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  // Defeat dead-code elimination of the address computation.
  if (sink == 1) std::printf("unreachable\n");
  report_ns_per_op(ctx, dt.count(), n);
}

PERF_BENCHMARK("micro.uts.sha1_node_split", .warmup = 1) {
  const std::uint32_t n = ctx.smoke() ? 200'000 : 1'000'000;
  uts::Digest d = uts::sha1({});
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < n; ++i) {
    d = uts::split_state(d, i);
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  if (d[0] == 0 && d[1] == 0 && d[2] == 0 && d[3] == 0) {
    std::printf("improbable all-zero digest prefix\n");
  }
  report_ns_per_op(ctx, dt.count(), n);
}

PERF_BENCHMARK("micro.uts.expand", .warmup = 1) {
  const int n = ctx.smoke() ? 100'000 : 500'000;
  const uts::TreeParams params;
  uts::Node node = uts::root_node(params);
  std::vector<uts::Node> children;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    children.clear();
    uts::expand(params, node, children);
    if (!children.empty()) node = children.front();
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  report_ns_per_op(ctx, dt.count(), static_cast<std::uint64_t>(n));
}

PERF_BENCHMARK("micro.fft.fft1d_4096", .warmup = 1) {
  const int rounds = ctx.smoke() ? 50 : 400;
  const std::size_t n = 4096;
  util::Xoshiro256ss rng(1);
  std::vector<fft::Complex> data(n);
  for (auto& v : data) v = fft::Complex(rng.uniform(), rng.uniform());
  const auto t0 = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    fft::fft_inplace(data, -1);
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  report_ns_per_op(ctx, dt.count(),
                   static_cast<std::uint64_t>(rounds) * n);
}

PERF_BENCHMARK("micro.fft.fft2d_256", .warmup = 1) {
  const int rounds = ctx.smoke() ? 4 : 32;
  const std::size_t n = 256;
  util::Xoshiro256ss rng(2);
  std::vector<fft::Complex> plane(n * n);
  for (auto& v : plane) v = fft::Complex(rng.uniform(), rng.uniform());
  const auto t0 = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    fft::fft_2d(plane.data(), n, n, -1);
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  report_ns_per_op(ctx, dt.count(),
                   static_cast<std::uint64_t>(rounds) * n * n);
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("bench_micro_engine", argc, argv,
                        [](const util::Cli& cli) {
                          return perf::Runner("bench_micro_engine", cli).main();
                        });
}
