// Edge cases and cross-cutting properties not covered by the per-module
// suites: atomics, eager/rendezvous boundaries, modeled-vs-real timing
// equivalence, degenerate machines, and engine stress.
//
// The ad-hoc failure-case catalogue (zero-capacity conduit links, degenerate
// machine shapes, negative costs, empty transfers, self-messages) lives in
// fault::degenerate_scenarios — the seeded scenario API — so every run
// probes freshly-drawn members of each rejection family and the accepted
// scenarios additionally execute their micro-workload under fault plans.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/subthread.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "gas/gas.hpp"
#include "mpl/mpi.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using gas::Config;
using gas::Runtime;
using gas::Thread;

Config cfg(int threads, int nodes) {
  Config c;
  c.machine = topo::lehman(nodes);
  c.threads = threads;
  return c;
}

TEST(Scenarios, RejectionAndAcceptanceContractsHold) {
  // Every scenario in the catalogue honours its contract — bad configs are
  // rejected with a precise diagnostic, degenerate-but-legal ones are not —
  // across several seeds (each seed draws different magnitudes).
  int rejecting = 0, accepting = 0;
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL, 12345ULL}) {
    for (const fault::Scenario& s : fault::degenerate_scenarios(seed)) {
      fault::Violations v;
      fault::check_scenario_contract(s, v);
      for (const std::string& violation : v) {
        ADD_FAILURE() << "seed " << seed << ": " << violation;
      }
      (s.expect_rejection() ? rejecting : accepting) += 1;
    }
  }
  // The catalogue keeps covering both halves of the contract.
  EXPECT_GE(rejecting, 4 * 15);
  EXPECT_GE(accepting, 4 * 3);
}

TEST(Scenarios, AcceptedScenariosRunCleanUnderQuiescentPlan) {
  for (const fault::Scenario& s : fault::degenerate_scenarios(5)) {
    if (s.expect_rejection()) continue;
    const fault::ScenarioResult r =
        fault::run_scenario(s, fault::plan_template("none", 5));
    for (const std::string& violation : r.violations) {
      ADD_FAILURE() << violation;
    }
  }
}

TEST(Scenarios, AcceptedScenariosSurvivePerturbationPlans) {
  // Self-messages and empty transfers never touch the network, so payload
  // integrity and barrier linearizability must hold under ANY plan.
  for (const std::string plan : {"jitter", "latency-spike", "mixed"}) {
    for (const fault::Scenario& s : fault::degenerate_scenarios(11)) {
      if (s.expect_rejection()) continue;
      const fault::ScenarioResult r =
          fault::run_scenario(s, fault::plan_template(plan, 11));
      for (const std::string& violation : r.violations) {
        ADD_FAILURE() << plan << ": " << violation;
      }
    }
  }
}

TEST(ConfigValidation, AcceptsSaneConfigsUnchanged) {
  const Config c = cfg(8, 2);
  const Config v = gas::validated(c);
  EXPECT_EQ(v.threads, c.threads);
  EXPECT_EQ(v.machine.nodes, c.machine.nodes);
  sim::Engine e;
  Runtime rt(e, c);  // and the runtime constructor accepts it too
  EXPECT_EQ(rt.threads(), 8);
}

TEST(ConfigValidation, SubPoolRejectsNonPositiveWidth) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 1));
  int checked = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      for (const int width : {0, -1}) {
        try {
          core::SubPool pool(t, width, core::SubModel::openmp);
          ADD_FAILURE() << "SubPool accepted width " << width;
        } catch (const std::invalid_argument& err) {
          EXPECT_NE(std::string(err.what()).find("width"), std::string::npos)
              << err.what();
          ++checked;
        }
      }
      // width 1 (master only) is the smallest legal pool.
      core::SubPool pool(t, 1, core::SubModel::openmp);
      EXPECT_EQ(pool.width(), 1);
    }
    co_return;
  });
  rt.run_to_completion();
  EXPECT_EQ(checked, 2);
}

TEST(EngineStress, HundredThousandInterleavedEvents) {
  sim::Engine e;
  util::Xoshiro256ss rng(99);
  std::uint64_t sum = 0;
  for (int i = 0; i < 100000; ++i) {
    sim::call_at(e, static_cast<sim::Time>(rng.below(1000000)),
                 [&sum, i] { sum += static_cast<std::uint64_t>(i); });
  }
  e.run();
  EXPECT_EQ(e.events_executed(), 100000u);
  EXPECT_EQ(sum, 100000ull * 99999 / 2);
}

TEST(FluidLinkEdge, CapAboveCapacityIsHarmless) {
  sim::Engine e;
  sim::FluidLink link(e, 1e9);
  sim::spawn(e, [](sim::FluidLink& l) -> sim::Task<void> {
    co_await l.transfer(1e6, /*max_rate=*/5e9);  // cap above capacity
  }(link));
  e.run();
  EXPECT_NEAR(static_cast<double>(e.now()), 1e6, 100.0);
}

TEST(FluidLinkEdge, ManySmallTransfersConserve) {
  sim::Engine e;
  sim::FluidLink link(e, 1e9);
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    sim::spawn(e, [](sim::FluidLink& l, int& d) -> sim::Task<void> {
      co_await l.transfer(100.0);
      ++d;
    }(link, done));
  }
  e.run();
  EXPECT_EQ(done, 200);
  EXPECT_NEAR(link.total_bytes(), 20000.0, 1.0);
}

TEST(SemaphoreEdge, BatchReleaseWakesMultiple) {
  sim::Engine e;
  sim::Semaphore sem(e, 0);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim::spawn(e, [](sim::Semaphore& s, int& w) -> sim::Task<void> {
      co_await s.acquire();
      ++w;
    }(sem, woken));
  }
  sim::spawn(e, [](sim::Engine& eng, sim::Semaphore& s) -> sim::Task<void> {
    co_await sim::delay(eng, 10);
    s.release(3);
  }(e, sem));
  e.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(sem.available(), 0);
}

TEST(Atomics, FetchAddAccumulatesAcrossRanks) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  auto counter = rt.heap().alloc<long>(0, 1);
  *counter.raw = 0;
  std::vector<long> observed(8, -1);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      const long old = co_await t.fetch_add(counter, 1L);
      EXPECT_GE(old, 0);
      EXPECT_LT(old, 40);
    }
    co_await t.barrier();
    observed[static_cast<std::size_t>(t.rank())] = *counter.raw;
  });
  rt.run_to_completion();
  EXPECT_EQ(*counter.raw, 40);
  for (long v : observed) EXPECT_EQ(v, 40);
}

TEST(Atomics, CompareSwapOnlyOneWinner) {
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  auto flag = rt.heap().alloc<int>(0, 1);
  *flag.raw = 0;
  int winners = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    const int old = co_await t.compare_swap(flag, 0, t.rank() + 1);
    if (old == 0) ++winners;
  });
  rt.run_to_completion();
  EXPECT_EQ(winners, 1);
  EXPECT_NE(*flag.raw, 0);
}

TEST(Atomics, FetchXorIsInvolution) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 1));
  auto word = rt.heap().alloc<std::uint64_t>(1, 1);
  *word.raw = 0xDEADBEEFULL;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      (void)co_await t.fetch_xor(word, std::uint64_t{0x1234});
      (void)co_await t.fetch_xor(word, std::uint64_t{0x1234});
    }
  });
  rt.run_to_completion();
  EXPECT_EQ(*word.raw, 0xDEADBEEFULL);
}

TEST(MplEdge, EagerBoundaryExact) {
  // Messages at exactly kEagerLimit are eager; one byte more is rendezvous
  // — and both deliver the payload intact regardless of posting order.
  for (const std::size_t bytes :
       {mpl::Mpi::kEagerLimit, mpl::Mpi::kEagerLimit + 1}) {
    sim::Engine e;
    Runtime rt(e, cfg(2, 2));
    mpl::Mpi mpi(rt);
    std::vector<char> out(bytes, 'x'), in(bytes, 0);
    rt.spmd([&](Thread& t) -> sim::Task<void> {
      if (t.rank() == 0) {
        co_await mpi.send(t, 1, 1, out.data(), bytes);
      } else {
        co_await t.compute(1e-6);  // recv posted after the send
        co_await mpi.recv(t, 0, 1, in.data(), bytes);
      }
    });
    rt.run_to_completion();
    EXPECT_EQ(in, out) << bytes;
  }
}

TEST(MplEdge, ModeledAlltoallTimingEqualsRealData) {
  // The charge-only (nullptr) path must cost exactly what the real-data
  // path costs — otherwise FtModel's paper-size runs are measuring a
  // different algorithm.
  auto timed = [](bool real) {
    sim::Engine e;
    Runtime rt(e, cfg(8, 4));
    mpl::Mpi mpi(rt);
    const std::size_t per = 64 * 1024;
    static std::vector<std::vector<char>> send(8), recv(8);
    if (real) {
      for (int r = 0; r < 8; ++r) {
        send[static_cast<std::size_t>(r)].assign(8 * per, 'a');
        recv[static_cast<std::size_t>(r)].assign(8 * per, 'b');
      }
    }
    rt.spmd([&, real](Thread& t) -> sim::Task<void> {
      const auto r = static_cast<std::size_t>(t.rank());
      co_await mpi.alltoall(t, real ? send[r].data() : nullptr,
                            real ? recv[r].data() : nullptr, per);
    });
    rt.run_to_completion();
    return e.now();
  };
  EXPECT_EQ(timed(true), timed(false));
}

TEST(DegenerateMachines, CatalogueCoversAndRunsThem) {
  // The degenerate-but-legal machines (single core/single thread, more
  // nodes than ranks) come from the scenario catalogue; beyond the shared
  // micro-workload, spot-check their placement arithmetic here.
  bool saw_single = false, saw_sparse = false;
  for (const fault::Scenario& s : fault::degenerate_scenarios(3)) {
    if (s.expect_rejection()) continue;
    if (s.name == "single-core-single-thread") {
      saw_single = true;
      EXPECT_EQ(s.config.threads, 1);
    }
    if (s.name == "more-nodes-than-threads") {
      saw_sparse = true;
      sim::Engine e;
      Runtime rt(e, s.config);
      EXPECT_EQ(rt.ranks_per_node(), 1);
      EXPECT_EQ(rt.nodes_used(), 3);
    }
    const fault::ScenarioResult r =
        fault::run_scenario(s, fault::plan_template("none", 3));
    EXPECT_TRUE(r.ok()) << s.name << ": "
                        << (r.violations.empty() ? "" : r.violations.front());
  }
  EXPECT_TRUE(saw_single);
  EXPECT_TRUE(saw_sparse);
}

TEST(GasEdge, MemcpySharedThirdParty) {
  // Rank 0 copies between two *other* ranks' segments (upc_memcpy).
  sim::Engine e;
  Runtime rt(e, cfg(4, 2));
  auto src = rt.heap().alloc<int>(1, 32);
  auto dst = rt.heap().alloc<int>(3, 32);
  for (int i = 0; i < 32; ++i) src.raw[i] = 500 + i;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      co_await t.copy(dst, gas::to_const(src), 32);
    }
  });
  rt.run_to_completion();
  EXPECT_EQ(dst.raw[31], 531);
}

TEST(GasEdge, ZeroByteCopyIsFreeAndSafe) {
  // Free even with a fault plan installed: a quiescent plan exposes no
  // hooks, and the message seam never sees a transfer that does not exist.
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  fault::FaultPlan plan(fault::plan_template("none", 8));
  plan.install(rt);
  auto dst = rt.heap().alloc<char>(1, 1);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      co_await t.copy(dst, static_cast<const char*>(nullptr), 0);
    }
  });
  rt.run_to_completion();
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(rt.network().total_messages(), 0u);
  EXPECT_EQ(plan.stats().total(), 0u);
}

TEST(GasEdge, BarrierPhaseCountsMatchCalls) {
  sim::Engine e;
  Runtime rt(e, cfg(4, 1));
  rt.spmd([](Thread& t) -> sim::Task<void> {
    for (int i = 0; i < 7; ++i) co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(rt.global_barrier().phase(), 7u);
}

TEST(GasEdge, SplitPhaseBarrierOverlapsWork) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 1));
  sim::Time overlapped_done = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      const auto token = t.notify();
      co_await t.compute(100e-6);  // overlapped with rank 1's arrival
      overlapped_done = t.runtime().engine().now();
      co_await t.wait(token);
    } else {
      co_await t.compute(100e-6);
      const auto token = t.notify();
      co_await t.wait(token);
    }
  });
  rt.run_to_completion();
  // Rank 0's work finished at ~100 us, the same time rank 1 arrived: the
  // barrier cost anything beyond the overlap, not 2x the work.
  EXPECT_LT(sim::to_seconds(e.now()), 110e-6);
  EXPECT_NEAR(sim::to_seconds(overlapped_done), 100e-6, 1e-6);
}

}  // namespace
