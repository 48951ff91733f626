// Cross-module integration and determinism properties.
#include <gtest/gtest.h>

#include <vector>

#include "core/core.hpp"
#include "fft/ft_model.hpp"
#include "gas/gas.hpp"
#include "mpl/mpi.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "uts/tree.hpp"

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

TEST(Determinism, IdenticalRunsGiveIdenticalVirtualTimes) {
  auto run_once = [] {
    sim::Engine e;
    Runtime rt(e, cfg(16, 4));
    uts::TreeParams tree;
    tree.b0 = 400;
    sched::WorkStealing<uts::Node> ws(
        rt, sched::StealParams{},
        [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
          uts::expand(tree, n, out);
        });
    ws.seed_work(0, {uts::root_node(tree)});
    rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
    rt.run_to_completion();
    return std::pair{e.now(), e.events_executed()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);    // bit-identical virtual end time
  EXPECT_EQ(a.second, b.second);  // and event count
}

TEST(Determinism, FtModelIsBitReproducible) {
  auto run_once = [] {
    sim::Engine e;
    Runtime rt(e, cfg(32, 8));
    fft::FtConfig fc;
    fc.grid = fft::FtParams::class_s();
    fc.subs = 2;
    fft::FtModel ft(rt, fc);
    rt.spmd([&ft](Thread& t) -> sim::Task<void> { co_await ft.run(t); });
    rt.run_to_completion();
    return e.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, MixedWorkloadsShareOneRuntime) {
  // Teams, collectives, locks and sub-threads coexisting in one program.
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  core::Team node0 = core::Team::node_team(rt, 0);
  gas::Collectives world(rt);
  gas::GlobalLock lock(rt, 0);
  auto counter = rt.heap().alloc<int>(0, 1);
  *counter.raw = 0;
  std::vector<gas::GlobalPtr<int>> bufs;
  for (int r = 0; r < 8; ++r) bufs.push_back(rt.heap().alloc<int>(r, 4));
  for (int i = 0; i < 4; ++i) bufs[2].raw[i] = 55 + i;

  rt.spmd([&](Thread& t) -> sim::Task<void> {
    // Sub-thread burst.
    core::SubPool pool(t, 2);
    co_await pool.parallel_for(
        8, core::Schedule::dynamic,
        [](core::SubContext& c, std::size_t lo, std::size_t hi) -> sim::Task<void> {
          co_await c.compute(1e-7 * static_cast<double>(hi - lo));
        });
    // Lock-protected global counter.
    co_await lock.acquire(t);
    *counter.raw += t.rank() + 1;
    co_await lock.release(t);
    // World broadcast from rank 2.
    co_await world.broadcast(t, bufs, 4, 2);
    // Team barrier for node 0's members.
    if (node0.contains(t.rank())) co_await node0.barrier(t);
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(*counter.raw, 36);  // sum 1..8
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)].raw[0], 55);
  }
}

TEST(Integration, MpiAndGasCoexist) {
  sim::Engine e;
  Runtime rt(e, cfg(4, 2));
  mpl::Mpi mpi(rt);
  auto shared = rt.heap().alloc<int>(3, 1);
  int relayed = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      const int v = 1234;
      co_await mpi.send(t, 1, 0, &v, sizeof v);   // two-sided hop
    } else if (t.rank() == 1) {
      int v = 0;
      co_await mpi.recv(t, 0, 0, &v, sizeof v);
      co_await t.put(shared, v + 1);              // one-sided hop
    } else if (t.rank() == 3) {
      co_await t.barrier();
      relayed = *shared.raw;
      co_return;
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(relayed, 1235);
}

TEST(Integration, OversubscribedRuntimeStillCorrect) {
  // More UPC threads than hardware threads: slots wrap, everything slows,
  // nothing breaks.
  sim::Engine e;
  Runtime rt(e, cfg(48, 1));  // 48 ranks on a 16-hwthread node
  auto arr = rt.heap().all_alloc<int>(48, 1);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.put(arr.at(static_cast<std::size_t>((t.rank() + 1) % 48)),
                   t.rank());
    co_await t.barrier();
  });
  rt.run_to_completion();
  for (int r = 0; r < 48; ++r) {
    EXPECT_EQ(*arr.at(static_cast<std::size_t>(r)).raw, (r + 47) % 48);
  }
}

TEST(Integration, WorkStealingUnderPthreadsBackend) {
  uts::TreeParams tree;
  tree.b0 = 250;
  const auto oracle = uts::enumerate(tree);
  sim::Engine e;
  auto c = cfg(8, 2);
  c.backend = gas::Backend::pthreads;
  Runtime rt(e, c);
  sched::WorkStealing<uts::Node> ws(
      rt, sched::StealParams{},
      [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  EXPECT_EQ(ws.total_processed(), oracle.nodes);
}

TEST(Integration, GigeSlowsEverythingButChangesNothing) {
  auto run_with = [](net::ConduitSpec conduit) {
    sim::Engine e;
    auto c = cfg(8, 4);
    c.conduit = conduit;
    Runtime rt(e, c);
    auto dst = rt.heap().alloc<char>(7, 64 * 1024);
    static std::vector<char> src(64 * 1024, 'q');
    rt.spmd([&](Thread& t) -> sim::Task<void> {
      if (t.rank() == 0) co_await t.copy(dst, src.data(), src.size());
      co_await t.barrier();
    });
    rt.run_to_completion();
    return std::pair{sim::to_seconds(e.now()), dst.raw[777]};
  };
  const auto ib = run_with(net::ib_qdr());
  const auto eth = run_with(net::gige());
  EXPECT_EQ(ib.second, 'q');
  EXPECT_EQ(eth.second, 'q');
  EXPECT_GT(eth.first, ib.first * 5);
}

}  // namespace
