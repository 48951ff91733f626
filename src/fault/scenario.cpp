#include "fault/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "sim/engine.hpp"
#include "topo/machine.hpp"
#include "util/rng.hpp"

namespace hupc::fault {

namespace {

gas::Config sane_config(int threads, int nodes) {
  return gas::preset_config("lehman", nodes, threads);
}

Scenario rejected(std::string name, gas::Config config, std::string needle) {
  Scenario s;
  s.name = std::move(name);
  s.config = std::move(config);
  s.expect_reject_needle = std::move(needle);
  return s;
}

Scenario accepted(std::string name, gas::Config config) {
  Scenario s;
  s.name = std::move(name);
  s.config = std::move(config);
  return s;
}

}  // namespace

std::vector<Scenario> degenerate_scenarios(std::uint64_t seed) {
  util::SplitMix64 sm(seed ^ 0xDE6E4EA7ULL);
  // Seeded magnitudes: each seed probes a different member of every
  // rejection family (any negative cost, any non-positive count must be
  // rejected, not just the one value a hand-written test picked).
  const int neg_small = -1 - static_cast<int>(sm.next() % 64);
  const double neg_cost = -1e-9 * static_cast<double>(1 + sm.next() % 1000);
  const double neg_bw = -1e6 * static_cast<double>(1 + sm.next() % 1000);

  std::vector<Scenario> all;

  // --- thread counts -----------------------------------------------------
  {
    gas::Config c = sane_config(0, 2);
    all.push_back(rejected("threads-zero", c, "threads"));
  }
  {
    gas::Config c = sane_config(neg_small, 2);
    all.push_back(rejected("threads-negative", c, "threads"));
  }

  // --- machine shapes ----------------------------------------------------
  {
    gas::Config c = sane_config(4, 2);
    c.machine.nodes = 0;
    all.push_back(rejected("machine-no-nodes", c, "machine shape"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.machine.sockets_per_node = 0;
    all.push_back(rejected("machine-no-sockets", c, "machine shape"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.machine.cores_per_socket = neg_small;
    all.push_back(rejected("machine-negative-cores", c, "machine shape"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.machine.smt_per_core = 0;
    all.push_back(rejected("machine-no-smt", c, "machine shape"));
  }

  // --- cost constants ----------------------------------------------------
  {
    gas::Config c = sane_config(4, 2);
    c.costs.ptr_overhead_s = neg_cost;
    all.push_back(rejected("cost-ptr-overhead", c, "ptr_overhead_s"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.costs.barrier_hop_s = neg_cost;
    all.push_back(rejected("cost-barrier-hop", c, "barrier_hop_s"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.costs.lock_local_s = neg_cost;
    all.push_back(rejected("cost-lock-local", c, "lock_local_s"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.costs.loopback_bw = neg_bw;
    all.push_back(rejected("cost-loopback-bw", c, "loopback_bw"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.costs.shm_copy_overhead_s = neg_cost;
    all.push_back(rejected("cost-shm-copy", c, "shm_copy_overhead_s"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.costs.loopback_overhead_s = neg_cost;
    all.push_back(rejected("cost-loopback-overhead", c, "loopback_overhead_s"));
  }

  // --- zero-capacity conduit links ---------------------------------------
  {
    gas::Config c = sane_config(4, 2);
    c.conduit.nic_bw = 0.0;
    all.push_back(rejected("conduit-dead-nic", c, "conduit"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.conduit.conn_bw = neg_bw;
    all.push_back(rejected("conduit-negative-conn", c, "conduit"));
  }
  {
    gas::Config c = sane_config(4, 2);
    c.conduit.stage_bw = 0.0;
    all.push_back(rejected("conduit-dead-staging", c, "conduit"));
  }

  // --- degenerate but legal machines -------------------------------------
  {
    gas::Config c;
    c.machine = topo::toy(1);
    c.threads = 1;
    all.push_back(accepted("single-core-single-thread", c));
  }
  {
    // 1 rank per node, most of the machine idle.
    all.push_back(accepted("more-nodes-than-threads", sane_config(3, 12)));
  }
  {
    all.push_back(accepted("sane-baseline", sane_config(8, 2)));
  }
  return all;
}

void check_scenario_contract(const Scenario& scenario, Violations& out) {
  try {
    sim::Engine engine;
    gas::Runtime rt(engine, scenario.config);
    if (scenario.expect_rejection()) {
      out.push_back("scenario " + scenario.name +
                    ": config accepted; expected rejection mentioning \"" +
                    scenario.expect_reject_needle + "\"");
    }
  } catch (const std::invalid_argument& err) {
    if (!scenario.expect_rejection()) {
      out.push_back("scenario " + scenario.name +
                    ": sane config rejected: " + err.what());
    } else if (std::string(err.what()).find(scenario.expect_reject_needle) ==
               std::string::npos) {
      out.push_back("scenario " + scenario.name + ": rejection message \"" +
                    err.what() + "\" does not mention \"" +
                    scenario.expect_reject_needle + "\"");
    }
  }
}

ScenarioResult run_scenario(const Scenario& scenario, const PlanParams& plan) {
  ScenarioResult res;
  if (scenario.expect_rejection()) {
    check_scenario_contract(scenario, res.violations);
    return res;
  }

  sim::Engine engine;
  gas::Runtime rt(engine, scenario.config);
  FaultPlan fault(plan);
  fault.install(rt);

  const int n = rt.threads();
  auto cells = rt.heap().all_alloc<int>(static_cast<std::size_t>(n), 1);
  for (int r = 0; r < n; ++r) *cells.at(static_cast<std::size_t>(r)).raw = -1;

  std::vector<int> readback(static_cast<std::size_t>(n), -1);
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    const auto me = static_cast<std::size_t>(t.rank());
    co_await t.barrier();
    // Empty transfer: must move nothing and inject no messages.
    co_await t.copy(cells.at(me), static_cast<const int*>(nullptr), 0);
    // Self-message: a rank writing and reading its own shared cell.
    co_await t.put(cells.at(me), 100 + t.rank());
    readback[me] = co_await t.get(cells.at(me));
    co_await t.barrier();
  });
  try {
    rt.run_to_completion();
  } catch (const std::exception& e) {
    res.violations.push_back("scenario " + scenario.name +
                             ": exception: " + e.what());
    res.virtual_time = engine.now();
    return res;
  }
  res.virtual_time = engine.now();

  for (int r = 0; r < n; ++r) {
    if (readback[static_cast<std::size_t>(r)] != 100 + r) {
      res.violations.push_back(
          "scenario " + scenario.name + ": rank " + std::to_string(r) +
          " self-message readback " +
          std::to_string(readback[static_cast<std::size_t>(r)]) + " != " +
          std::to_string(100 + r));
    }
  }
  // Self-accesses and empty transfers never cross the wire.
  if (rt.network().total_messages() != 0) {
    res.violations.push_back(
        "scenario " + scenario.name + ": " +
        std::to_string(rt.network().total_messages()) +
        " network messages from self/empty transfers (expected 0)");
  }
  check_byte_conservation(rt, res.violations);
  check_barrier(rt, 2, res.violations);
  check_virtual_time(engine, res.violations);
  return res;
}

}  // namespace hupc::fault
