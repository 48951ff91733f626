// KV serving under open-loop load: the first latency-percentile benchmark.
//
// Eight cells drive kv::run_serving over a store sharded across every rank:
// 64 ranks (lehman, QDR IB) at two read/write mixes, each measured on the
// pinned amo path, the pinned rpc path, and the per-call selector (auto) —
// plus 256-rank (pyramid) auto cells that pin the percentiles at 4x the
// scale. Unlike the throughput benches, the reported metrics are the shape
// of the latency DISTRIBUTION: p50/p99/p99.9 from the log-bucketed
// histogram of intended-arrival-to-completion latencies, plus raw
// throughput and goodput under a 50 us SLO.
//
// The report is a selector ablation gate: on BOTH 64-rank mixes, auto's
// p99 must land within 5% of the better pinned path — the per-call policy
// (local/read -> amo, remote write -> rpc) has to beat committing to
// either path wholesale, read-heavy and write-heavy alike.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "async/rpc.hpp"
#include "bench_common.hpp"
#include "kv/shard_map.hpp"
#include "kv/store.hpp"
#include "kv/workload.hpp"
#include "trace/counters.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kRanksPerNode = 8;
constexpr double kSloS = 50e-6;

struct Cell {
  int threads;
  double read_fraction;
  kv::KvPath path;
};

void run_cell(perf::Context& ctx, const Cell& cell) {
  const int nodes = cell.threads / kRanksPerNode;
  const char* machine = cell.threads > 64 ? "pyramid" : "lehman";
  const char* conduit = cell.threads > 64 ? "ib-ddr" : "ib-qdr";

  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config(machine, nodes, cell.threads,
                                             gas::Backend::processes, conduit));
  async::RpcDomain rpc(rt);
  kv::KvStore::Params store_params;
  store_params.capacity = 1024;
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt), store_params);

  kv::ServingParams params;
  params.keys = 4096;
  params.ops_per_rank = ctx.smoke() ? (cell.threads > 64 ? 64 : 120) : 256;
  params.dist = kv::KeyDist::zipfian;
  params.zipf_s = 0.99;
  params.read_fraction = cell.read_fraction;
  params.path = cell.path;
  params.arrival_rate_hz = 1.0e6;
  params.slo_s = kSloS;
  params.seed = 1;

  const kv::ServingResult res = kv::run_serving(rt, store, params);

  ctx.set_config("machine", machine);
  ctx.set_config("conduit", conduit);
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(cell.threads));
  ctx.set_config("nodes", std::to_string(nodes));
  ctx.set_config("keys", std::to_string(params.keys));
  ctx.set_config("ops_per_rank", std::to_string(params.ops_per_rank));
  ctx.set_config("dist", kv::key_dist_name(params.dist));
  ctx.set_config("zipf_s", "0.99");
  ctx.set_config("read_fraction", std::to_string(params.read_fraction));
  ctx.set_config("kv_path", kv::kv_path_name(params.path));
  ctx.set_config("arrival_rate_hz", "1e6");
  ctx.set_config("slo_us", "50");
  // Transparency witness: every path must serve the same operation count.
  ctx.set_config("ops", std::to_string(res.ops));

  ctx.report("p50_us", res.p50_s * 1e6, "us", perf::Direction::lower_is_better);
  ctx.report("p99_us", res.p99_s * 1e6, "us", perf::Direction::lower_is_better);
  ctx.report("p999_us", res.p999_s * 1e6, "us",
             perf::Direction::lower_is_better);
  ctx.report("throughput_kops", res.throughput_ops_s / 1e3, "kops/s");
  ctx.report("slo_goodput_kops", res.slo_goodput_ops_s / 1e3, "kops/s");
  ctx.report_trace_counters(
      engine.counters(),
      {"net.msg", "net.bytes", "kv.latency.op", "kv.latency.slo_miss",
       "gas.kv.path.amo", "gas.kv.path.rpc", "gas.kv.probe", "gas.kv.retry"});
}

PERF_BENCHMARK("kv.serving.t64.r95.amo") {
  run_cell(ctx, {64, 0.95, kv::KvPath::amo});
}
PERF_BENCHMARK("kv.serving.t64.r95.rpc") {
  run_cell(ctx, {64, 0.95, kv::KvPath::rpc});
}
PERF_BENCHMARK("kv.serving.t64.r95.auto") {
  run_cell(ctx, {64, 0.95, kv::KvPath::automatic});
}
PERF_BENCHMARK("kv.serving.t64.r50.amo") {
  run_cell(ctx, {64, 0.50, kv::KvPath::amo});
}
PERF_BENCHMARK("kv.serving.t64.r50.rpc") {
  run_cell(ctx, {64, 0.50, kv::KvPath::rpc});
}
PERF_BENCHMARK("kv.serving.t64.r50.auto") {
  run_cell(ctx, {64, 0.50, kv::KvPath::automatic});
}
PERF_BENCHMARK("kv.serving.t256.r95.auto") {
  run_cell(ctx, {256, 0.95, kv::KvPath::automatic});
}
PERF_BENCHMARK("kv.serving.t256.r50.auto") {
  run_cell(ctx, {256, 0.50, kv::KvPath::automatic});
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  os << "\nKV serving latency (Zipfian s=0.99, 1 Mops/s/rank offered, 50 us "
        "SLO)\n";
  util::Table table({"Cell", "p50 us", "p99 us", "p99.9 us", "kops/s",
                     "SLO kops/s"});
  for (const auto& r : results) {
    table.add_row({r.id, util::Table::num(r.median("p50_us"), 2),
                   util::Table::num(r.median("p99_us"), 2),
                   util::Table::num(r.median("p999_us"), 2),
                   util::Table::num(r.median("throughput_kops"), 1),
                   util::Table::num(r.median("slo_goodput_kops"), 1)});
  }
  table.print(os);

  // Selector gate: on both 64-rank mixes auto's p99 must be within 5% of
  // the better pinned path.
  int rc = 0;
  for (const char* mix : {"r95", "r50"}) {
    const std::string base = std::string("kv.serving.t64.") + mix + ".";
    const auto* amo = bench::find_result(results, base + "amo");
    const auto* rpc = bench::find_result(results, base + "rpc");
    const auto* aut = bench::find_result(results, base + "auto");
    if (amo == nullptr || rpc == nullptr || aut == nullptr) continue;
    const double best =
        std::min(amo->median("p99_us"), rpc->median("p99_us"));
    const double got = aut->median("p99_us");
    char line[128];
    std::snprintf(line, sizeof line,
                  "\n%s: auto p99 %.2f us vs best pinned %.2f us -> %.2fx %s\n",
                  mix, got, best, got / best,
                  got <= 1.05 * best ? "(PASS <= 1.05x)" : "(FAIL > 1.05x)");
    os << line;
    if (got > 1.05 * best) rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(
      "bench_kv_serving", argc, argv,
      "KV serving — latency percentiles under open-loop load",
      "fine-grained AMO vs RPC-to-owner access paths over the "
      "hierarchical machine (thesis §4 communication trade-offs)",
      report);
}
