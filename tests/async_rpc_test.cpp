// RPC round-trip and golden-determinism battery (ISSUE: completion
// ordering). Covers: self-RPC, remote-rank RPC, nested RPC-from-RPC, value
// round-tripping through the serialized wire buffer, FIFO per-rank handler
// start order, exception propagation — and the golden property: the same
// (workload, seed) produces a bit-identical RPC completion order and trace
// counters across two independent runs, with and without a fault plan.
#include "async/rpc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "gas/gas.hpp"
#include "net/rpc_message.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using gas::Config;
using gas::Runtime;
using gas::Thread;

Config small_config(int threads, int nodes = 2) {
  Config cfg;
  cfg.machine = topo::lehman(nodes);
  cfg.threads = threads;
  return cfg;
}

TEST(RpcMessage, ValuesRoundTripInPutOrder) {
  net::RpcMessage m(net::RpcKind::request, 7, 1, 2);
  m.put(std::int32_t{-5});
  m.put(3.25);
  m.put(std::uint64_t{1} << 40);
  EXPECT_EQ(m.payload_bytes(), 4u + 8u + 8u);
  EXPECT_EQ(m.wire_bytes(), net::kRpcHeaderBytes + 20u);
  m.rewind();
  EXPECT_EQ(m.get<std::int32_t>(), -5);
  EXPECT_DOUBLE_EQ(m.get<double>(), 3.25);
  EXPECT_EQ(m.get<std::uint64_t>(), std::uint64_t{1} << 40);
  EXPECT_THROW((void)m.get<std::uint8_t>(), std::out_of_range);
}

TEST(AsyncRpc, RoundTripToSelfRemoteAndSupernodePeer) {
  sim::Engine e;
  Runtime rt(e, small_config(8));
  async::RpcDomain domain(rt);
  std::vector<int> results(3, 0);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      auto doubler = [](Thread& at, int x) { return 2 * x + at.rank(); };
      auto self = domain.call(t, 0, doubler, 10);    // self
      auto near = domain.call(t, 1, doubler, 20);    // same supernode
      auto far = domain.call(t, 7, doubler, 30);     // cross-node
      results[0] = co_await self;
      results[1] = co_await near;
      results[2] = co_await far;
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(results[0], 20);
  EXPECT_EQ(results[1], 41);
  EXPECT_EQ(results[2], 67);
  EXPECT_EQ(domain.stats().sent, 3u);
  EXPECT_EQ(domain.stats().executed, 3u);
  EXPECT_EQ(domain.stats().completed, 3u);
}

TEST(AsyncRpc, HandlersRunInTargetContextAndMayAwaitGasOps) {
  sim::Engine e;
  Runtime rt(e, small_config(4));
  async::RpcDomain domain(rt);
  auto counter = rt.heap().alloc<std::uint64_t>(3, 1);
  *counter.raw = 100;
  std::uint64_t observed = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      observed = co_await domain.call(
          t, 3,
          [counter](Thread& at, std::uint64_t delta) -> sim::Task<std::uint64_t> {
            // Runs as rank 3: fetch_add on its own shared word.
            co_return co_await at.fetch_add(counter, delta);
          },
          std::uint64_t{5});
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(observed, 100u);
  EXPECT_EQ(*counter.raw, 105u);
}

TEST(AsyncRpc, NestedRpcFromRpc) {
  sim::Engine e;
  Runtime rt(e, small_config(8));
  async::RpcDomain domain(rt);
  int result = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      // 0 -> 2, whose handler RPCs 2 -> 5 (cross-node), including a nested
      // hop BACK to the in-flight rank (2 -> 2) to prove personas don't
      // wedge on re-entrant self-calls.
      result = co_await domain.call(t, 2, [&domain](Thread& at,
                                                    int x) -> sim::Task<int> {
        const int inner =
            co_await domain.call(at, 5, [](Thread&, int y) { return y + 1; },
                                 x * 10);
        const int self_hop = co_await domain.call(
            at, at.rank(), [](Thread& me, int z) { return z + me.rank(); },
            inner);
        co_return self_hop;
      }, 4);
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(result, 4 * 10 + 1 + 2);
}

TEST(AsyncRpc, ExceptionsPropagateToTheCallersFuture) {
  sim::Engine e;
  Runtime rt(e, small_config(4));
  async::RpcDomain domain(rt);
  bool threw = false;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      auto f = domain.call(t, 2, [](Thread&, int) -> int {
        throw std::runtime_error("handler failure");
      }, 1);
      try {
        (void)co_await f;
      } catch (const std::runtime_error& ex) {
        threw = std::string(ex.what()) == "handler failure";
      }
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_TRUE(threw);
}

TEST(AsyncRpc, PerRankHandlerStartOrderIsFifo) {
  sim::Engine e;
  Runtime rt(e, small_config(4, 1));
  async::RpcDomain domain(rt);
  std::vector<int> started;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      std::vector<async::future<>> pending;
      for (int i = 0; i < 6; ++i) {
        pending.push_back(domain.call(t, 1, [&started](Thread&, int tag) {
          started.push_back(tag);
        }, i));
      }
      co_await async::when_all(std::move(pending)).wait();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(started, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// --- golden determinism ----------------------------------------------------

struct GoldenRun {
  std::vector<std::uint64_t> completion_order;  // rpc tags in resolve order
  std::vector<std::int64_t> completion_times;   // vtime of each resolve
  std::uint64_t sent = 0, executed = 0, completed = 0, bytes = 0;
  std::int64_t final_time = 0;
};

/// A mixed self/remote/nested RPC storm; every completion records (tag,
/// vtime). `plan_seed` != 0 additionally installs a completion-storm fault
/// plan — the golden property must hold with the seam active too.
GoldenRun golden_workload(std::uint64_t plan_seed) {
  trace::Tracer tracer;
  sim::Engine e;
  Config cfg = small_config(8);
  cfg.tracer = &tracer;
  Runtime rt(e, cfg);
  fault::FaultPlan plan(plan_seed == 0
                            ? fault::PlanParams{}
                            : fault::plan_template("completion-storm",
                                                   plan_seed));
  if (plan_seed != 0) plan.install(rt);
  async::RpcDomain domain(rt);
  GoldenRun out;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    std::vector<async::future<>> pending;
    for (int i = 0; i < 4; ++i) {
      const int target = (t.rank() + i * 3 + 1) % t.threads();
      const auto tag = static_cast<std::uint64_t>(t.rank() * 100 + i);
      auto f = domain.call(t, target,
                           [](Thread& at, std::uint64_t x) -> sim::Task<std::uint64_t> {
                             co_await at.compute(50e-9);
                             co_return x ^ static_cast<std::uint64_t>(at.rank());
                           },
                           tag);
      pending.push_back(f.then([&out, tag, &e](const std::uint64_t&) {
        out.completion_order.push_back(tag);
        out.completion_times.push_back(e.now());
      }));
    }
    co_await async::when_all(std::move(pending)).wait();
    co_await t.barrier();
  });
  rt.run_to_completion();
  out.sent = tracer.counter_total("async.rpc.sent");
  out.executed = tracer.counter_total("async.rpc.executed");
  out.completed = tracer.counter_total("async.rpc.completed");
  out.bytes = tracer.counter_total("async.rpc.bytes");
  out.final_time = e.now();
  return out;
}

TEST(AsyncRpcGolden, SameSeedBitIdenticalAcrossRuns) {
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42},
                             std::uint64_t{1234567}}) {
    const GoldenRun a = golden_workload(seed);
    const GoldenRun b = golden_workload(seed);
    EXPECT_EQ(a.completion_order, b.completion_order) << "seed " << seed;
    EXPECT_EQ(a.completion_times, b.completion_times) << "seed " << seed;
    EXPECT_EQ(a.final_time, b.final_time) << "seed " << seed;
    EXPECT_EQ(a.sent, b.sent) << "seed " << seed;
    EXPECT_EQ(a.executed, b.executed) << "seed " << seed;
    EXPECT_EQ(a.completed, b.completed) << "seed " << seed;
    EXPECT_EQ(a.bytes, b.bytes) << "seed " << seed;
    // Conservation: every sent RPC executed and completed exactly once.
    EXPECT_EQ(a.sent, 8u * 4u);
    EXPECT_EQ(a.executed, a.sent);
    EXPECT_EQ(a.completed, a.sent);
  }
}

TEST(AsyncRpcGolden, CompletionStormChangesScheduleNotResults) {
  const GoldenRun clean = golden_workload(0);
  const GoldenRun stormy = golden_workload(42);
  // Counters (WHAT happened) are schedule-independent...
  EXPECT_EQ(clean.sent, stormy.sent);
  EXPECT_EQ(clean.executed, stormy.executed);
  EXPECT_EQ(clean.completed, stormy.completed);
  EXPECT_EQ(clean.bytes, stormy.bytes);
  // ...while the storm must actually perturb WHEN (else the template is
  // inert and the test is vacuous).
  EXPECT_NE(clean.completion_times, stormy.completion_times);
}

}  // namespace
