// Ablation: flat vs hierarchical all-to-all in gas::Collectives at scale.
// The flat exchange sends one wire message per (src, dst) pair — n^2 of
// them, nearly all inter-node once the team spans the machine — while the
// hierarchical schedule gathers node-locally over shared memory, exchanges
// ONE aggregated message per (node, node) leader pair, and scatters
// node-locally again: G^2 wire messages instead of n^2, the supernode
// discipline of thesis ch. 4 applied to the collective layer itself.
//
// Runs real data (not cost-only copies) on Pyramid's GigE conduit with
// small per-pair blocks, so the exchange is message-count-dominated:
// exactly the regime the CollectiveSelector routes to hier. Every received
// block is verified against the sender's pattern, so the measured schedule
// is also a correct one. The report gates hier-vs-flat exchange time at
// >= 2x on the smoke tier's 256 ranks (32 nodes x 8); the full tier scales
// to 1024 ranks (128 nodes).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gas/collectives.hpp"
#include "trace/counters.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kRanksPerNode = 8;  // pyramid nodes
constexpr std::size_t kCount = 8;  // int64 elements per (src, dst) block
constexpr int kRounds = 2;

std::int64_t pattern(int member, std::size_t i) {
  return static_cast<std::int64_t>(member + 1) * 1000003 +
         static_cast<std::int64_t>(i) * 7919;
}

struct ExchangeResult {
  double round_us = 0.0;  // modeled microseconds per exchange round
  int threads = 0;
  int nodes = 0;
  std::uint64_t errors = 0;  // received elements that mismatched the oracle
  trace::Counters counters;  // the run's counter registry
};

ExchangeResult run_exchange(perf::Context& ctx, gas::CollAlgo algo) {
  ExchangeResult res;
  res.threads = ctx.smoke() ? 256 : 1024;
  res.nodes = res.threads / kRanksPerNode;

  sim::Engine engine;
  gas::Runtime rt(engine, gas::preset_config("pyramid", res.nodes, res.threads,
                                             gas::Backend::processes, "gige"));
  gas::Collectives coll(rt);
  const int n = res.threads;
  const std::size_t full = static_cast<std::size_t>(n) * kCount;

  std::vector<gas::GlobalPtr<std::int64_t>> bufs;
  bufs.reserve(static_cast<std::size_t>(n));
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    bufs.push_back(rt.heap().alloc<std::int64_t>(m, full));
    for (std::size_t i = 0; i < full; ++i) bufs.back().raw[i] = 0;
    auto& s = send[static_cast<std::size_t>(m)];
    s.resize(full);
    for (int dst = 0; dst < n; ++dst) {
      for (std::size_t i = 0; i < kCount; ++i) {
        s[static_cast<std::size_t>(dst) * kCount + i] =
            pattern(m, i) + dst * 31;
      }
    }
  }

  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      co_await coll.exchange(t, bufs,
                             send[static_cast<std::size_t>(t.rank())].data(),
                             kCount, /*overlap=*/false, algo);
    }
  });
  rt.run_to_completion();

  res.round_us = sim::to_seconds(engine.now()) / kRounds * 1e6;
  for (int m = 0; m < n; ++m) {
    const std::int64_t* recv = bufs[static_cast<std::size_t>(m)].raw;
    for (int src = 0; src < n; ++src) {
      for (std::size_t i = 0; i < kCount; ++i) {
        if (recv[static_cast<std::size_t>(src) * kCount + i] !=
            pattern(src, i) + m * 31) {
          ++res.errors;
        }
      }
    }
  }
  res.counters = engine.counters();
  return res;
}

void run_variant(perf::Context& ctx, gas::CollAlgo algo) {
  const ExchangeResult r = run_exchange(ctx, algo);

  ctx.set_config("machine", "pyramid");
  ctx.set_config("conduit", "gige");
  ctx.set_config("backend", "processes");
  ctx.set_config("threads", std::to_string(r.threads));
  ctx.set_config("nodes", std::to_string(r.nodes));
  ctx.set_config("block_bytes", std::to_string(kCount * sizeof(std::int64_t)));
  ctx.set_config("rounds", std::to_string(kRounds));
  ctx.set_config("algo", gas::coll_algo_name(algo));
  ctx.report("roundtime", r.round_us, "us/round",
             perf::Direction::lower_is_better);
  ctx.report("errors", static_cast<double>(r.errors), "elements",
             perf::Direction::lower_is_better);
  ctx.report_trace_counters(r.counters,
                            {"net.msg", "net.bytes", "gas.copy.rma",
                             "gas.copy.shm", "gas.coll.alltoall"});
}

PERF_BENCHMARK("coll.alltoall.flat") {
  run_variant(ctx, gas::CollAlgo::flat);
}
PERF_BENCHMARK("coll.alltoall.hier") {
  run_variant(ctx, gas::CollAlgo::hier);
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  const auto* flat = bench::find_result(results, "coll.alltoall.flat");
  const auto* hier = bench::find_result(results, "coll.alltoall.hier");
  if (flat == nullptr || hier == nullptr) return 0;  // filtered out

  if (flat->median("errors") != 0.0 || hier->median("errors") != 0.0) {
    os << "\nFAIL: the exchange delivered wrong data (flat "
       << flat->median("errors") << ", tuned " << hier->median("errors")
       << " bad elements)\n";
    return 1;
  }

  const double f = flat->median("roundtime");
  const double h = hier->median("roundtime");
  const double speedup = h > 0.0 ? f / h : 0.0;

  os << "\nCollectives ablation on the team all-to-all (hier vs flat, "
     << kCount * sizeof(std::int64_t) << " B blocks)\n";
  util::Table table({"Algorithm", "us/round", "vs flat"});
  table.add_row({"flat pairwise", util::Table::num(f, 3), "1.00"});
  table.add_row({"hier", util::Table::num(h, 3), util::Table::num(speedup, 2)});
  table.print(os);

  char line[96];
  std::snprintf(line, sizeof line,
                "\nHierarchical speedup over flat all-to-all: %.2fx %s\n",
                speedup, speedup >= 2.0 ? "(PASS >= 2x)" : "(FAIL < 2x)");
  os << line;
  return speedup >= 2.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(
      "bench_ablation_collectives", argc, argv,
      "Ablation — flat vs hierarchical all-to-all at 256-1024 ranks",
      "node-local gather + one aggregated message per leader pair + local "
      "scatter turns n^2 wire messages into G^2 (thesis ch. 4 supernode "
      "discipline applied to the collective layer)",
      report);
}
