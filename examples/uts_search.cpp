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
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "example_flags.hpp"
#include "gas/gas.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"
#include "uts/tree.hpp"

using namespace hupc;  // NOLINT

namespace {

struct RunResult {
  double seconds;
  std::uint64_t nodes;
  double local_ratio;
};

RunResult explore(const uts::TreeParams& tree, const gas::Config& config,
                  sched::StealParams params, bool optimized,
                  const std::optional<fault::PlanParams>& fault_plan) {
  sim::Engine engine;
  gas::Runtime rt(engine, config);
  // Installed before WorkStealing: the steal seam is read at construction.
  std::unique_ptr<fault::FaultPlan> plan;
  if (fault_plan) {
    plan = std::make_unique<fault::FaultPlan>(*fault_plan);
    plan->install(rt);
  }

  params.policy = optimized ? sched::VictimPolicy::local_first
                            : sched::VictimPolicy::random;
  params.rapid_diffusion = optimized;

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

int search(const util::Cli& cli) {
  uts::TreeParams tree;
  tree.root_seed = cli.get_int_in<std::uint32_t>("seed", 42);
  const int threads = cli.get_int_in<int>("threads", 32);
  const int nodes = cli.get_int_in<int>("nodes", 4);
  const std::string conduit = util::one_of(
      "conduit", cli.get("conduit", "ib-ddr"), {"gige", "ib-ddr"});
  sched::StealParams steal;
  steal.granularity = conduit == "gige" ? 20 : 8;
  steal.chunk = steal.granularity;
  steal.cache_probes = examples::read_cache_flag(cli, "off");
  steal.cache = examples::cache_geometry(cli);
  const examples::TraceFlags trace(cli);
  const auto fault_plan = examples::fault_plan_flags(cli);
  cli.reject_unread("uts_search");
  gas::Config config = gas::preset_config("pyramid", nodes, threads,
                                          gas::Backend::processes, conduit);
  config.tracer = trace.tracer.get();

  std::printf("UTS: binomial tree, seed %u — sequential oracle first...\n",
              tree.root_seed);
  const auto oracle = uts::enumerate(tree);
  std::printf("  %llu nodes, %llu leaves, max depth %u\n\n",
              static_cast<unsigned long long>(oracle.nodes),
              static_cast<unsigned long long>(oracle.leaves), oracle.max_depth);
  if (fault_plan) {
    std::printf("fault: %s\n\n", fault_plan->describe().c_str());
  }

  for (const bool optimized : {false, true}) {
    // Each configuration starts a fresh trace; the exported file holds the
    // final (optimized) run.
    if (trace.tracer) trace.tracer->clear();
    const auto r = explore(tree, config, steal, optimized, fault_plan);
    std::printf("%-28s %8.2f ms  %6.1f Mnodes/s  local steals %5.1f%%  %s\n",
                optimized ? "local-first + diffusion:" : "random baseline:",
                r.seconds * 1e3,
                static_cast<double>(r.nodes) / r.seconds / 1e6,
                r.local_ratio * 100.0,
                r.nodes == oracle.nodes ? "[verified]" : "[MISMATCH!]");
    if (r.nodes != oracle.nodes) return 1;
  }
  return trace.write("uts_search", "trace");
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("uts_search", argc, argv, search);
}
