// Ablation: non-contiguous data movement (VIS descriptors, src/gas/vis)
// on the FT all-to-all transpose exchange — the communication pattern of
// the NAS FT slab transpose at 64 ranks. Each rank owns one z-plane of a
// 512 x 16 x 64 complex grid and must deposit px = 8 destination rows of
// ny = 16 complex values into every peer's x-slab, strided by nz*ny.
//
//   loop  — the pre-VIS exchange: one launched contiguous copy per
//           destination row, 8 x 64 B small messages per peer;
//   vis   — one launched copy_strided per peer: the same 8 rows move as
//           ONE packed 512 B message (plus per-region headers);
//   vis+epochs — the vis exchange inside coalescing + read-cache epochs:
//           remote packed puts defer into the per-node epoch buffers and
//           flush as aggregated messages (the composition cell; reported,
//           not gated).
//
// All three variants move identical bytes into identical places (the
// checksum config is the witness); only the modeled message schedule
// changes. The gate: vis must beat loop by >= 3x modeled exchange rate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fft/kernel.hpp"
#include "gas/gas.hpp"
#include "trace/counters.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kThreads = 64;
constexpr int kNodes = 8;
constexpr std::size_t kNx = 512;  // px = kNx / kThreads = 8 rows per peer
constexpr std::size_t kNy = 4;    // 4 complex = 64 B per row (fine-grained)
constexpr std::size_t kNz = 64;   // pz = 1 plane per rank

enum class Variant { loop, vis, vis_epochs };

void run_variant(perf::Context& ctx, Variant variant) {
  const bool use_vis = variant != Variant::loop;
  const bool use_epochs = variant == Variant::vis_epochs;
  const std::size_t px = kNx / kThreads;
  const std::size_t plane = kNx * kNy;

  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("lehman", kNodes, kThreads));

  // in_[r]: rank r's z-plane [x][y]; out_[r]: its x-slab [x_local][z][y].
  std::vector<gas::GlobalPtr<fft::Complex>> in, out;
  for (int r = 0; r < kThreads; ++r) {
    in.push_back(rt.heap().alloc<fft::Complex>(r, plane));
    out.push_back(rt.heap().alloc<fft::Complex>(r, px * kNz * kNy));
  }

  rt.spmd([&, use_vis, use_epochs](gas::Thread& t) -> sim::Task<void> {
    const int me = t.rank();
    fft::Complex* slab = in[static_cast<std::size_t>(me)].raw;
    for (std::size_t i = 0; i < plane; ++i) {
      slab[i] = fft::Complex(static_cast<double>((i * 37 + me) % 101),
                             static_cast<double>((i * 13 + me) % 89));
    }
    co_await t.barrier();

    if (use_epochs) {
      t.begin_read_cache({});
      t.begin_coalesce({});
    }
    const std::size_t z = static_cast<std::size_t>(me);  // pz == 1
    std::vector<async::future<>> pending;
    for (int p = 0; p < kThreads; ++p) {
      fft::Complex* dst_base = out[static_cast<std::size_t>(p)].raw;
      const fft::Complex* src_rows =
          slab + static_cast<std::size_t>(p) * px * kNy;
      if (use_vis) {
        gas::GlobalPtr<fft::Complex> dst{p, dst_base + z * kNy};
        pending.push_back(t.launch_async(t.copy_strided(
            dst, gas::StridedSpec::rows(kNy, px, kNz * kNy), src_rows)));
      } else {
        for (std::size_t xl = 0; xl < px; ++xl) {
          gas::GlobalPtr<fft::Complex> dst{
              p, dst_base + (xl * kNz + z) * kNy};
          pending.push_back(
              t.launch_async(t.copy(dst, src_rows + xl * kNy, kNy)));
        }
      }
    }
    for (auto& f : pending) co_await f.wait();
    if (use_epochs) {
      co_await t.end_coalesce();
      t.end_read_cache();
    }
    co_await t.barrier();
    co_return;
  });
  rt.run_to_completion();

  // Identical deposits regardless of variant: fold the x-slabs.
  double checksum = 0.0;
  for (int r = 0; r < kThreads; ++r) {
    const fft::Complex* xs = out[static_cast<std::size_t>(r)].raw;
    for (std::size_t i = 0; i < px * kNz * kNy; ++i) {
      checksum += xs[i].real() - xs[i].imag();
    }
  }

  const double payload = static_cast<double>(kThreads) * kThreads * px * kNy *
                         sizeof(fft::Complex);
  const double secs = sim::to_seconds(engine.now());

  ctx.set_config("machine", "lehman");
  ctx.set_config("conduit", "ib-qdr");
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(kThreads));
  ctx.set_config("nodes", std::to_string(kNodes));
  ctx.set_config("grid", std::to_string(kNx) + "x" + std::to_string(kNy) +
                             "x" + std::to_string(kNz));
  ctx.set_config("vis", use_vis ? "on" : "off");
  ctx.set_config("epochs", use_epochs ? "on" : "off");
  ctx.set_config("checksum", std::to_string(checksum));
  ctx.report("xchg", payload / secs / 1e9, "GB/s");
  ctx.report_trace_counters(
      engine.counters(),
      {"net.msg", "net.bytes", "net.vis.msg", "net.vis.regions",
       "net.vis.bytes", "comm.flush.msgs", "gas.cache.hits"});
}

PERF_BENCHMARK("ft.transpose.loop") { run_variant(ctx, Variant::loop); }
PERF_BENCHMARK("ft.transpose.vis") { run_variant(ctx, Variant::vis); }
PERF_BENCHMARK("ft.transpose.vis_epochs") {
  run_variant(ctx, Variant::vis_epochs);
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  const perf::Result* loop = bench::find_result(results, "ft.transpose.loop");
  const perf::Result* vis = bench::find_result(results, "ft.transpose.vis");
  const perf::Result* full =
      bench::find_result(results, "ft.transpose.vis_epochs");
  if (loop == nullptr) return 0;  // filtered out; nothing to gate against
  const double loop_rate = loop->median("xchg");

  os << "\nVIS ablation on the FT transpose exchange (" << kThreads
     << " ranks, " << kNodes << " nodes, QDR IB)\n";
  util::Table table({"Exchange", "GB/s", "vs loop"});
  table.add_row({"per-row loop", util::Table::num(loop_rate, 3), "1.00"});
  double vis_rate = 0.0;
  if (vis != nullptr) {
    vis_rate = vis->median("xchg");
    table.add_row({"vis packed", util::Table::num(vis_rate, 3),
                   util::Table::num(vis_rate / loop_rate, 2)});
  }
  if (full != nullptr) {
    const double r = full->median("xchg");
    table.add_row({"vis + coalesce + cache", util::Table::num(r, 3),
                   util::Table::num(r / loop_rate, 2)});
  }
  table.print(os);

  if (vis == nullptr) return 0;  // no gate to apply
  char line[96];
  std::snprintf(line, sizeof line, "\nVIS speedup over per-row loop: %.2fx %s\n",
                vis_rate / loop_rate,
                vis_rate / loop_rate >= 3.0 ? "(PASS >= 3x)" : "(FAIL < 3x)");
  os << line;
  return vis_rate / loop_rate >= 3.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(
      "bench_ablation_vis", argc, argv,
      "Ablation — VIS strided descriptors on the FT transpose exchange",
      "packing a strided footprint into one message amortizes per-message "
      "injection overhead the coalescer pays per fine-grained op (GASNet "
      "VIS; thesis §4.3.1)",
      report);
}
