// Ablation: the asynchronous completion layer (src/async) on a halo
// exchange — each rank ships a small ghost-zone message to its four ring
// neighbours on either side every step. The blocking id waits out each
// transfer before issuing the next one and only then computes, so every
// step pays eight serialized wire latencies plus the stencil update. The
// async id launches all eight puts through Thread::launch_async, computes
// the interior while they are in flight, and settles the step with one
// when_all — the thesis §4.2 overlap discipline expressed as futures.
//
// Runs on Pyramid's GigE conduit with small messages, so the exchange is
// latency-dominated (~45 us wire latency against ~7 us of sender
// occupancy per message): exactly the regime where blocking waitsync
// exposes the full delivery time of every message while split-phase
// injection pays only the per-message gap plus ONE exposed latency
// (Bell et al.'s observation that overlap buys the most on high-latency
// networks). The report gates async-vs-blocking step time at >= 2x.
#include <cstdio>
#include <string>
#include <vector>

#include "async/future.hpp"
#include "bench_common.hpp"
#include "trace/counters.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kThreads = 64;
constexpr int kNodes = 8;
constexpr int kNeighbors = 7;  // each side, node-strided (all off-node)
// Peers sit a whole node apart so every ghost message is an inter-node
// RMA (same-node neighbours would take the shared-memory path and hide
// the wire latency this ablation is about).
constexpr int kStride = kThreads / kNodes;
constexpr std::size_t kMsgBytes = 128;  // latency-dominated ghost zone
constexpr double kComputeSeconds = 250e-6;  // interior stencil update

struct HaloResult {
  double step_us = 0.0;   // modeled microseconds per step (mean)
  double total_s = 0.0;   // modeled seconds for the whole run
  int steps = 0;
  trace::Counters counters;  // the run's counter registry
};

sim::Task<void> halo_step_blocking(gas::Thread& t) {
  for (int d = 1; d <= kNeighbors; ++d) {
    const int up = (t.rank() + d * kStride) % t.threads();
    const int down = (t.rank() - d * kStride + t.threads()) % t.threads();
    co_await t.copy_raw(up, nullptr, nullptr, kMsgBytes);
    co_await t.copy_raw(down, nullptr, nullptr, kMsgBytes);
  }
  co_await t.compute(kComputeSeconds);
  co_await t.barrier();
}

sim::Task<void> halo_step_async(gas::Thread& t) {
  std::vector<async::future<>> pending;
  pending.reserve(2 * kNeighbors);
  for (int d = 1; d <= kNeighbors; ++d) {
    const int up = (t.rank() + d * kStride) % t.threads();
    const int down = (t.rank() - d * kStride + t.threads()) % t.threads();
    pending.push_back(
        t.launch_async(t.copy_raw(up, nullptr, nullptr, kMsgBytes)));
    pending.push_back(
        t.launch_async(t.copy_raw(down, nullptr, nullptr, kMsgBytes)));
  }
  // The interior update rides under the in-flight ghost puts.
  co_await t.compute(kComputeSeconds);
  co_await async::when_all(std::move(pending)).wait();
  co_await t.barrier();
}

HaloResult run_halo(perf::Context& ctx, bool async) {
  const int steps = ctx.smoke() ? 20 : 50;

  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("pyramid", kNodes, kThreads,
                                             gas::Backend::processes, "gige"));

  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    for (int s = 0; s < steps; ++s) {
      if (async) {
        co_await halo_step_async(t);
      } else {
        co_await halo_step_blocking(t);
      }
    }
  });
  rt.run_to_completion();

  HaloResult r;
  r.steps = steps;
  r.total_s = sim::to_seconds(engine.now());
  r.step_us = r.total_s / steps * 1e6;
  r.counters = engine.counters();
  return r;
}

void run_variant(perf::Context& ctx, bool async) {
  const HaloResult r = run_halo(ctx, async);

  ctx.set_config("machine", "pyramid");
  ctx.set_config("conduit", "gige");
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(kThreads));
  ctx.set_config("nodes", std::to_string(kNodes));
  ctx.set_config("neighbors", std::to_string(2 * kNeighbors));
  ctx.set_config("msg_bytes", std::to_string(kMsgBytes));
  ctx.set_config("steps", std::to_string(r.steps));
  ctx.set_config("async", async ? "on" : "off");
  ctx.report("steptime", r.step_us, "us/step",
             perf::Direction::lower_is_better);
  ctx.report_trace_counters(
      r.counters, {"net.msg", "net.bytes", "async.copy.issued",
                   "async.copy.completed", "async.copy.failed"});
}

PERF_BENCHMARK("halo.exchange.blocking") { run_variant(ctx, /*async=*/false); }
PERF_BENCHMARK("halo.exchange.async") { run_variant(ctx, /*async=*/true); }

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  const auto* blocking =
      bench::find_result(results, "halo.exchange.blocking");
  const auto* async = bench::find_result(results, "halo.exchange.async");
  if (blocking == nullptr || async == nullptr) return 0;  // filtered out

  const double blk = blocking->median("steptime");
  const double asy = async->median("steptime");
  const double speedup = asy > 0.0 ? blk / asy : 0.0;

  os << "\nAsync-completion ablation on the ring halo exchange (" << kThreads
     << " ranks, " << kNodes << " nodes, GigE, " << 2 * kNeighbors
     << " x " << kMsgBytes << " B per step)\n";
  util::Table table({"Exchange", "us/step", "vs blocking"});
  table.add_row({"blocking waitsync", util::Table::num(blk, 3), "1.00"});
  table.add_row({"async when_all", util::Table::num(asy, 3),
                 util::Table::num(speedup, 2)});
  table.print(os);

  char line[96];
  std::snprintf(line, sizeof line,
                "\nAsync overlap speedup over blocking: %.2fx %s\n", speedup,
                speedup >= 2.0 ? "(PASS >= 2x)" : "(FAIL < 2x)");
  os << line;
  return speedup >= 2.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(
      "bench_ablation_async", argc, argv,
      "Ablation — async completion layer on a latency-bound halo exchange",
      "futures + when_all overlap what blocking waitsync serializes: eight "
      "in-flight ghost puts share the wire latency the blocking loop pays "
      "eight times (thesis §4.2)",
      report);
}
