// Conservation sweep: 64 seeded fault-injection runs of parallel UTS —
// {random, local-first} stealing x {ib-qdr, gige} conduits x 16 seeds, each
// under a seeded latency-spike plan — asserting that no perturbation can
// make the runtime lose or duplicate work: node counts match the sequential
// oracle, the steal stacks drain, byte conservation holds on every link,
// and the trace counters agree with the scheduler's own statistics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "gas/gas.hpp"
#include "net/conduit.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "uts/tree.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience

std::string label(std::uint64_t seed, sched::VictimPolicy policy,
                  const std::string& conduit) {
  return "seed=" + std::to_string(seed) + " policy=" +
         (policy == sched::VictimPolicy::random ? "random" : "local-first") +
         " conduit=" + conduit;
}

void run_one(std::uint64_t seed, sched::VictimPolicy policy,
             const std::string& conduit) {
  trace::Tracer tracer(std::size_t{1} << 18);
  sim::Engine engine;
  gas::Config cfg;
  cfg.machine = topo::lehman(2);
  cfg.threads = 8;
  cfg.conduit = conduit == "gige" ? net::gige() : net::ib_qdr();
  cfg.tracer = &tracer;
  gas::Runtime rt(engine, cfg);

  fault::FaultPlan plan(fault::plan_template("latency-spike", seed));
  plan.install(rt);

  util::SplitMix64 sm(seed ^ 0xC0E5E12EULL);
  uts::TreeParams tree;
  tree.b0 = 50 + static_cast<int>(sm.next() % 31);
  tree.m = 8;
  tree.q = 0.1;
  tree.root_seed = static_cast<std::uint32_t>(sm.next() % 512);
  const uts::TreeStats oracle = uts::enumerate(tree);

  sched::StealParams sp;
  sp.policy = policy;
  sp.rapid_diffusion = true;
  sp.granularity = 4;
  sp.chunk = 4;
  sp.batch = 16;
  sp.seed = seed;
  sched::WorkStealing<uts::Node> ws(
      rt, sp, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](gas::Thread& t) { return ws.run(t); });
  rt.run_to_completion();

  fault::Violations v;
  fault::check_steal_conservation(ws, rt.threads(), oracle.nodes, v);
  fault::check_byte_conservation(rt, v);
  fault::check_network_counters(rt, v);
  fault::check_virtual_time(engine, v);
  for (const std::string& violation : v) {
    ADD_FAILURE() << label(seed, policy, conduit) << ": " << violation;
  }
  EXPECT_EQ(ws.total_processed(), oracle.nodes)
      << label(seed, policy, conduit);
}

TEST(FaultConservation, SixtyFourLatencySpikeSweep) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (const auto policy :
         {sched::VictimPolicy::random, sched::VictimPolicy::local_first}) {
      for (const std::string conduit : {"ib-qdr", "gige"}) {
        run_one(seed, policy, conduit);
      }
    }
  }
}

}  // namespace
