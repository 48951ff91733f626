// Unbalanced Tree Search with hierarchical work stealing — the Chapter 3
// application. Counts the nodes of a binomial UTS tree in parallel across
// a simulated cluster, comparing the locality-oblivious baseline with the
// thesis's local-first + rapid-diffusion strategy, and verifying both
// against the sequential enumeration.
//
//   ./uts_search [--threads N] [--nodes M] [--seed S] [--conduit gige|ib-ddr]
//               [--read-cache=on|off]   serve steal-probe reads through a
//                  read-cache epoch (--cache-lines=N --cache-line-bytes=B)
//               [--trace=FILE]       chrome://tracing JSON of the final run
//               [--trace-summary=FILE]  per-category counts/time + counters
//               [--fault-plan=NAME --fault-seed=S]  run under a seeded fault
//                  plan — the parallel count must still match the oracle
//
// Fault-injection sweeps run through `hupc_bench --workload fuzz`.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/read_cache.hpp"
#include "fault/plan.hpp"
#include "gas/gas.hpp"
#include "net/conduit.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "uts/tree.hpp"

using namespace hupc;  // NOLINT

namespace {

struct RunResult {
  double seconds;
  std::uint64_t nodes;
  double local_ratio;
};

struct CacheConfig {
  bool enabled = false;
  comm::CacheParams params;
};

RunResult explore(const uts::TreeParams& tree, int threads, int nodes,
                  const std::string& conduit, bool optimized,
                  const CacheConfig& cache, trace::Tracer* tracer,
                  const fault::PlanParams* fault_plan) {
  sim::Engine engine;
  gas::Config config;
  config.machine = topo::pyramid(nodes);
  config.threads = threads;
  config.conduit = conduit == "gige" ? net::gige() : net::ib_ddr();
  config.tracer = tracer;
  gas::Runtime rt(engine, config);
  // Installed before WorkStealing: the steal seam is read at construction.
  std::unique_ptr<fault::FaultPlan> plan;
  if (fault_plan != nullptr) {
    plan = std::make_unique<fault::FaultPlan>(*fault_plan);
    plan->install(rt);
  }

  sched::StealParams params;
  params.policy = optimized ? sched::VictimPolicy::local_first
                            : sched::VictimPolicy::random;
  params.rapid_diffusion = optimized;
  params.granularity = conduit == "gige" ? 20 : 8;
  params.chunk = params.granularity;
  params.cache_probes = cache.enabled;
  params.cache = cache.params;

  sched::WorkStealing<uts::Node> ws(
      rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](gas::Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  return RunResult{sim::to_seconds(engine.now()), ws.total_processed(),
                   ws.local_steal_ratio()};
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  uts::TreeParams tree;
  tree.root_seed = static_cast<std::uint32_t>(cli.get_int("seed", 42));
  const int threads = static_cast<int>(cli.get_int("threads", 32));
  const int nodes = static_cast<int>(cli.get_int("nodes", 4));
  const std::string conduit = cli.get("conduit", "ib-ddr");
  if (conduit != "gige" && conduit != "ib-ddr") {
    throw std::invalid_argument("unknown conduit '" + conduit +
                                "' (expected gige|ib-ddr)");
  }
  CacheConfig cache;
  const std::string rc = cli.get("read-cache", "off");
  if (rc != "on" && rc != "off") {
    throw std::invalid_argument("unknown --read-cache value '" + rc +
                                "' (expected on|off)");
  }
  cache.enabled = rc == "on";
  cache.params.lines =
      static_cast<std::size_t>(cli.get_int("cache-lines", 256));
  cache.params.line_bytes =
      static_cast<std::size_t>(cli.get_int("cache-line-bytes", 64));

  std::printf("UTS: binomial tree, seed %u — sequential oracle first...\n",
              tree.root_seed);
  const auto oracle = uts::enumerate(tree);
  std::printf("  %llu nodes, %llu leaves, max depth %u\n\n",
              static_cast<unsigned long long>(oracle.nodes),
              static_cast<unsigned long long>(oracle.leaves), oracle.max_depth);

  const std::string trace_file = cli.get("trace", "");
  const std::string summary_file = cli.get("trace-summary", "");
  std::unique_ptr<trace::Tracer> tracer;
  if (!trace_file.empty() || !summary_file.empty()) {
    tracer = std::make_unique<trace::Tracer>();
  }

  std::unique_ptr<fault::PlanParams> fault_plan;
  const std::string plan_name = cli.get("fault-plan", "");
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  if (!plan_name.empty()) {
    fault_plan = std::make_unique<fault::PlanParams>(
        fault::plan_template(plan_name, fault_seed));
    std::printf("fault: %s\n\n", fault_plan->describe().c_str());
  }
  cli.reject_unread("uts_search");

  for (const bool optimized : {false, true}) {
    // Each configuration starts a fresh trace; the exported file holds the
    // final (optimized) run.
    if (tracer) tracer->clear();
    const auto r = explore(tree, threads, nodes, conduit, optimized, cache,
                           tracer.get(), fault_plan.get());
    std::printf("%-28s %8.2f ms  %6.1f Mnodes/s  local steals %5.1f%%  %s\n",
                optimized ? "local-first + diffusion:" : "random baseline:",
                r.seconds * 1e3,
                static_cast<double>(r.nodes) / r.seconds / 1e6,
                r.local_ratio * 100.0,
                r.nodes == oracle.nodes ? "[verified]" : "[MISMATCH!]");
    if (r.nodes != oracle.nodes) return 1;
  }
  if (tracer && !trace_file.empty()) {
    std::ofstream os(trace_file);
    tracer->export_chrome(os);
    if (!os) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_file.c_str());
      return 1;
    }
    std::printf("trace: %llu events (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(tracer->recorded()),
                static_cast<unsigned long long>(tracer->dropped()),
                trace_file.c_str());
  }
  if (tracer && !summary_file.empty()) {
    std::ofstream os(summary_file);
    tracer->export_summary(os);
    if (!os) {
      std::fprintf(stderr, "error: cannot write trace summary to %s\n",
                   summary_file.c_str());
      return 1;
    }
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // Bad input (an unknown name, or a config that fails validation) is a
  // usage error: exit 2, as unknown flags do.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
