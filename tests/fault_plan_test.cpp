// FaultPlan unit tests: template determinism, the quiescent-plan == no-plan
// bit-identity guarantee, and each injection seam observed in isolation.
#include <gtest/gtest.h>

#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/subthread.hpp"
#include "fault/plan.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience

gas::Config cfg(trace::Tracer* tracer = nullptr) {
  gas::Config c;
  c.machine = topo::lehman(2);
  c.threads = 8;
  c.tracer = tracer;
  return c;
}

TEST(PlanTemplates, SameSeedSameParams) {
  for (const std::string& name : fault::plan_template_names()) {
    const fault::PlanParams a = fault::plan_template(name, 42);
    const fault::PlanParams b = fault::plan_template(name, 42);
    EXPECT_EQ(a.describe(), b.describe()) << name;
  }
}

TEST(PlanTemplates, DifferentSeedsExploreTheFamily) {
  // Non-quiescent templates draw their magnitudes from the seed.
  const fault::PlanParams a = fault::plan_template("latency-spike", 1);
  const fault::PlanParams b = fault::plan_template("latency-spike", 2);
  EXPECT_NE(a.describe(), b.describe());
}

TEST(PlanTemplates, UnknownNameThrowsListingKnown) {
  try {
    (void)fault::plan_template("no-such-template", 1);
    FAIL() << "unknown template accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("no-such-template"),
              std::string::npos);
    EXPECT_NE(std::string(err.what()).find("latency-spike"), std::string::npos);
  }
}

TEST(PlanTemplates, NoneIsQuiescentOthersAreNot) {
  EXPECT_TRUE(fault::plan_template("none", 5).quiescent());
  for (const std::string& name : fault::plan_template_names()) {
    if (name == "none") continue;
    EXPECT_FALSE(fault::plan_template(name, 5).quiescent()) << name;
  }
}

// A small deterministic workload: bulk puts ring-wise + barriers. Returns
// final virtual time; fills `summary` with the trace export.
sim::Time run_mini(bool with_quiescent_plan, std::string* summary) {
  sim::Engine engine;
  trace::Tracer tracer;
  gas::Runtime rt(engine, cfg(&tracer));
  std::unique_ptr<fault::FaultPlan> plan;
  if (with_quiescent_plan) {
    plan = std::make_unique<fault::FaultPlan>(fault::plan_template("none", 9));
    plan->install(rt);
  }
  auto arr = rt.heap().all_alloc<double>(8 * 256, 256);
  std::vector<double> buf(256, 1.5);
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    for (int iter = 0; iter < 3; ++iter) {
      const auto peer = static_cast<std::size_t>(
          (t.rank() + 1 + iter) % t.threads());
      co_await t.copy(arr.at(peer * 256), buf.data(), 256);
      co_await t.barrier();
    }
  });
  rt.run_to_completion();
  std::ostringstream os;
  tracer.export_summary(os);
  *summary = os.str();
  return engine.now();
}

TEST(QuiescentPlan, BitIdenticalToNoPlanAtAll) {
  // The zero-cost guarantee: installing a plan with no enabled groups must
  // leave the simulation bit-identical — same virtual time, same trace.
  std::string without, with;
  const sim::Time t0 = run_mini(false, &without);
  const sim::Time t1 = run_mini(true, &with);
  EXPECT_EQ(t0, t1);
  EXPECT_EQ(without, with);
}

TEST(Seams, HeapPressureThrowsBadAlloc) {
  sim::Engine engine;
  gas::Runtime rt(engine, cfg());
  fault::PlanParams p;
  p.seed = 3;
  p.alloc_fail_after_bytes = 1024;
  p.alloc_fail_p = 1.0;
  fault::FaultPlan plan(p);
  plan.install(rt);
  (void)rt.heap().alloc<char>(0, 1024);  // fills the grace budget
  EXPECT_THROW((void)rt.heap().alloc<char>(1, 64), std::bad_alloc);
  EXPECT_GE(rt.counters().total("fault.alloc.fail"), 1u);
  // Uninstalling ends the pressure.
  rt.install_faults({});
  EXPECT_TRUE(rt.heap().alloc<char>(1, 64).valid());
}

TEST(Seams, SpawnThrottleClampsSubPoolWidth) {
  sim::Engine engine;
  gas::Runtime rt(engine, cfg());
  fault::PlanParams p;
  p.seed = 3;
  p.spawn_width_cap = 1;
  fault::FaultPlan plan(p);
  plan.install(rt);
  int width_seen = -1;
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      core::SubPool pool(t, 4, core::SubModel::openmp);
      width_seen = pool.width();
    }
    co_return;
  });
  rt.run_to_completion();
  EXPECT_EQ(width_seen, 1);
  EXPECT_GE(rt.counters().total("fault.spawn.throttle"), 1u);
  // Counted on the lane of the master whose pool was clamped.
  EXPECT_EQ(rt.counters().get("fault.spawn.throttle", 0),
            rt.counters().total("fault.spawn.throttle"));
}

TEST(Seams, EventJitterDelaysButNeverReorders) {
  sim::Engine engine;
  gas::Runtime rt(engine, cfg());  // the plan counts into its registry
  fault::PlanParams p;
  p.seed = 11;
  p.event_jitter_p = 1.0;
  p.event_jitter_max_s = 10e-6;
  fault::FaultPlan plan(p);
  plan.install(rt);
  sim::Time last = -1;
  bool monotone = true;
  for (int i = 0; i < 100; ++i) {
    sim::call_at(engine, static_cast<sim::Time>(i) * 100, [&, i] {
      if (engine.now() < last) monotone = false;
      last = engine.now();
    });
  }
  engine.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(rt.counters().total("fault.event.jitter"), 100u);
  EXPECT_GT(last, 99 * 100);  // jitter really stretched the schedule
}

TEST(Seams, BlackoutHoldsMessagesUntilRecovery) {
  sim::Engine engine;
  gas::Runtime rt(engine, cfg());
  fault::PlanParams p;
  p.seed = 5;
  p.blackout_node = 1;
  p.blackout_start_s = 0.0;
  p.blackout_duration_s = 2e-3;  // node 1 dark for the first 2 ms
  fault::FaultPlan plan(p);
  plan.install(rt);
  int remote_rank = -1;  // any rank on the darkened node
  for (int r = 0; r < rt.threads(); ++r) {
    if (rt.node_of(r) == 1) {
      remote_rank = r;
      break;
    }
  }
  ASSERT_NE(remote_rank, -1);
  auto cell = rt.heap().alloc<double>(remote_rank, 64);
  std::vector<double> buf(64, 2.0);
  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) co_await t.copy(cell, buf.data(), 64);
  });
  rt.run_to_completion();
  EXPECT_GE(rt.counters().total("fault.msg.blackout"), 1u);
  // Every hold is counted on the sending rank's lane, none on the engine's.
  EXPECT_EQ(rt.counters().get("fault.msg.blackout", 0),
            rt.counters().total("fault.msg.blackout"));
  EXPECT_EQ(rt.counters().get("fault.msg.blackout", trace::kEngineRank), 0u);
  // The put could not complete before the link recovered.
  EXPECT_GE(sim::to_seconds(engine.now()), 2e-3);
  EXPECT_EQ(cell.raw[63], 2.0);  // payload still intact
}

TEST(Seams, DescribeNamesActiveGroups) {
  const fault::PlanParams p = fault::plan_template("mixed", 17);
  const std::string d = p.describe();
  EXPECT_NE(d.find("mixed"), std::string::npos);
  EXPECT_NE(d.find("seed=17"), std::string::npos);
  EXPECT_NE(d.find("jitter"), std::string::npos);
  EXPECT_NE(d.find("steal-fail"), std::string::npos);
}

}  // namespace
