// The per-destination coalescing engine (src/comm) and its gas::Thread
// epoch API: read-your-writes via conflict flush, deferred-put visibility,
// deterministic flush ordering, counter/trace reconciliation, and the
// no-epoch bit-identity guarantee.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "comm/coalescer.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "stream/random_access.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using gas::Runtime;
using gas::Thread;

gas::Config cfg(int threads, int nodes, trace::Tracer* tracer = nullptr) {
  gas::Config c;
  c.machine = topo::lehman(nodes);
  c.threads = threads;
  c.tracer = tracer;
  return c;
}

TEST(Coalescer, ReadYourWritesViaConflictFlush) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));  // one rank per node: rank 1 is remote
  auto cells = rt.heap().all_alloc<std::uint64_t>(2, 1);
  *cells.at(0).raw = 0;
  *cells.at(1).raw = 0;
  std::uint64_t before_flush = 99, observed = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      t.begin_coalesce();
      co_await t.put(cells.at(1), std::uint64_t{42});
      before_flush = *cells.at(1).raw;  // put is DEFERRED: still the old 0
      observed = co_await t.get(cells.at(1));  // conflict flush, then read
      co_await t.end_coalesce();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(before_flush, 0u);
  EXPECT_EQ(observed, 42u);
  const comm::Stats* s = rt.thread(0).coalesce_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->puts_deferred, 1u);
  EXPECT_EQ(s->flushes_conflict, 1u);
}

TEST(Coalescer, NonOverlappingReadDoesNotFlushBufferedPuts) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().all_alloc<std::uint64_t>(4, 2);  // 2 words per rank
  for (int i = 0; i < 4; ++i) *cells.at(i).raw = 7;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      t.begin_coalesce();
      co_await t.put(cells.at(2), std::uint64_t{1});  // rank 1's word 0
      // Reading rank 1's OTHER word must not force the put out.
      (void)co_await t.get(cells.at(3));
      EXPECT_EQ(*cells.at(2).raw, 7u);  // still buffered
      co_await t.end_coalesce();
      EXPECT_EQ(*cells.at(2).raw, 1u);  // fence applied it
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  const comm::Stats* s = rt.thread(0).coalesce_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->flushes_conflict, 0u);
  EXPECT_EQ(s->flushes_fence, 1u);
  EXPECT_EQ(s->ops_absorbed, 2u);  // one put + one get, one message
  EXPECT_EQ(s->flush_messages, 1u);
}

TEST(Coalescer, CapacityTriggersIntermediateFlushes) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().all_alloc<std::uint64_t>(32, 16);
  for (int i = 0; i < 32; ++i) *cells.at(i).raw = 0;
  comm::Params p;
  p.max_ops = 4;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      t.begin_coalesce(p);
      for (int i = 0; i < 10; ++i) {
        co_await t.put(cells.at(16 + i), static_cast<std::uint64_t>(i + 1));
      }
      co_await t.end_coalesce();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*cells.at(16 + i).raw, static_cast<std::uint64_t>(i + 1));
  }
  const comm::Stats* s = rt.thread(0).coalesce_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->flushes_capacity, 2u);  // ops 4 and 8
  EXPECT_EQ(s->flushes_fence, 1u);     // the trailing 2
  EXPECT_EQ(s->flush_messages, 3u);
  EXPECT_EQ(rt.counters().total("net.aggregated"), 3u);
  EXPECT_EQ(rt.counters().total("net.coalesced_ops"), 10u);
}

TEST(Coalescer, BarrierFencesBufferedPutsForPeers) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().all_alloc<std::uint64_t>(2, 1);
  *cells.at(0).raw = 0;
  *cells.at(1).raw = 0;
  std::uint64_t seen_by_peer = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      t.begin_coalesce();
      co_await t.put(cells.at(1), std::uint64_t{5});
      co_await t.barrier();  // fence: flushes though the epoch stays open
      EXPECT_TRUE(t.coalescing());
      co_await t.end_coalesce();
    } else {
      co_await t.barrier();
      seen_by_peer = *cells.at(1).raw;  // own cell, plain load after fence
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(seen_by_peer, 5u);
}

TEST(Coalescer, BulkCopyToSameNodeFencesThatDestination) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().all_alloc<std::uint64_t>(8, 4);
  for (int i = 0; i < 8; ++i) *cells.at(i).raw = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      t.begin_coalesce();
      co_await t.put(cells.at(4), std::uint64_t{11});
      // A bulk copy into node 1 must be ordered after the buffered put.
      const std::uint64_t src[2] = {21, 22};
      co_await t.copy(cells.at(6), src, 2);
      EXPECT_EQ(*cells.at(4).raw, 11u);  // fenced out by the bulk transfer
      co_await t.end_coalesce();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(*cells.at(6).raw, 21u);
  EXPECT_EQ(*cells.at(7).raw, 22u);
  const comm::Stats* s = rt.thread(0).coalesce_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->flushes_fence, 1u);  // the copy's fence; epoch end had nothing
}

TEST(Coalescer, RaiiGuardAbandonStillAppliesPutsUncharged) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().all_alloc<std::uint64_t>(2, 1);
  *cells.at(0).raw = 0;
  *cells.at(1).raw = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      {
        gas::CoalesceEpoch epoch(t);
        co_await t.put(cells.at(1), std::uint64_t{7});
        // Guard destroyed without end(): the unwind path.
      }
      EXPECT_FALSE(t.coalescing());
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(*cells.at(1).raw, 7u);  // memory stays verifiable
  const comm::Stats* s = rt.thread(0).coalesce_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->abandoned_ops, 1u);
  EXPECT_EQ(s->flush_messages, 0u);
  EXPECT_EQ(rt.counters().total("net.aggregated"), 0u);  // never charged
}

TEST(Coalescer, EpochsDoNotNestAndConfigRejectsNonsense) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      t.begin_coalesce();
      EXPECT_THROW(t.begin_coalesce(), std::logic_error);
      comm::Params bad_ops;
      bad_ops.max_ops = 0;
      EXPECT_THROW(t.begin_coalesce(bad_ops), std::logic_error);  // nested
      co_await t.end_coalesce();
      EXPECT_THROW(t.begin_coalesce(bad_ops), std::invalid_argument);
      EXPECT_FALSE(t.coalescing());
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
}

// Every rank puts a burst to every other node, then ends the epoch: the
// coalescer's own stats, the network's aggregation counters, and the trace
// counter stream must all tell the same story.
TEST(Coalescer, CountersReconcileWithNetworkAndTrace) {
  trace::Tracer tracer;
  sim::Engine e;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerPeer = 8;
  Runtime rt(e, cfg(kThreads, 4, &tracer));  // one rank per node
  auto cells =
      rt.heap().all_alloc<std::uint64_t>(kThreads * kThreads * kPerPeer,
                                         kThreads * kPerPeer);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    t.begin_coalesce();
    for (int peer = 0; peer < t.threads(); ++peer) {
      if (peer == t.rank()) continue;
      for (std::uint64_t k = 0; k < kPerPeer; ++k) {
        const auto idx = static_cast<std::uint64_t>(peer) * kThreads *
                             kPerPeer +
                         static_cast<std::uint64_t>(t.rank()) * kPerPeer + k;
        co_await t.put(cells.at(idx), idx);
      }
    }
    co_await t.end_coalesce();
    co_await t.barrier();
  });
  rt.run_to_completion();

  std::uint64_t flushes = 0, absorbed = 0;
  for (int r = 0; r < kThreads; ++r) {
    const comm::Stats* s = rt.thread(r).coalesce_stats();
    ASSERT_NE(s, nullptr);
    flushes += s->flush_messages;
    absorbed += s->ops_absorbed;
    EXPECT_EQ(s->ops_absorbed, kPerPeer * (kThreads - 1));
  }
  EXPECT_EQ(flushes, static_cast<std::uint64_t>(kThreads) * (kThreads - 1));
  EXPECT_EQ(absorbed, kPerPeer * kThreads * (kThreads - 1));
  // Network view: every flush became one aggregated message.
  EXPECT_EQ(rt.counters().total("net.aggregated"), flushes);
  EXPECT_EQ(rt.counters().total("net.coalesced_ops"), absorbed);
  // Trace view: the tracer's registry carries the identical totals, at
  // every trace level.
  EXPECT_EQ(tracer.counter_total("comm.flush.msgs"), flushes);
  EXPECT_EQ(tracer.counter_total("comm.flush.ops"), absorbed);
  EXPECT_EQ(tracer.counter_total("net.aggregated"), flushes);
  EXPECT_EQ(tracer.counter_total("net.coalesced_ops"), absorbed);
  EXPECT_EQ(tracer.counter_total("gas.access.coalesced"), absorbed);
  // Every deferred value landed.
  for (int peer = 0; peer < kThreads; ++peer) {
    for (int r = 0; r < kThreads; ++r) {
      if (peer == r) continue;
      for (std::uint64_t k = 0; k < kPerPeer; ++k) {
        const auto idx =
            static_cast<std::uint64_t>(peer) * kThreads * kPerPeer +
            static_cast<std::uint64_t>(r) * kPerPeer + k;
        EXPECT_EQ(*cells.at(idx).raw, idx);
      }
    }
  }
}

// Fixed seed, two runs, byte-identical schedules: final virtual time and
// the full trace summary must match exactly.
std::pair<double, std::string> coalesced_scatter_run() {
  trace::Tracer tracer;
  sim::Engine e;
  Runtime rt(e, cfg(8, 4, &tracer));  // 2 ranks per node
  auto cells = rt.heap().all_alloc<std::uint64_t>(64, 8);
  for (int i = 0; i < 64; ++i) *cells.at(i).raw = 0;
  comm::Params p;
  p.max_ops = 6;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    t.begin_coalesce(p);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL * (t.rank() + 1);
    for (int i = 0; i < 40; ++i) {
      x = stream::RandomAccess::hpcc_next(x);
      const auto idx = x % 64;
      const int owner = cells.owner_of(idx);
      if (t.runtime().node_of(owner) != t.node()) {
        (void)co_await t.fetch_xor(cells.at(idx), x);
      }
    }
    co_await t.end_coalesce();
    co_await t.barrier();
  });
  rt.run_to_completion();
  std::ostringstream os;
  tracer.export_summary(os);
  return {sim::to_seconds(e.now()), os.str()};
}

TEST(Coalescer, FlushScheduleIsDeterministic) {
  const auto [t1, s1] = coalesced_scatter_run();
  const auto [t2, s2] = coalesced_scatter_run();
  EXPECT_EQ(t1, t2);  // bit-identical virtual end time
  EXPECT_EQ(s1, s2);  // identical event/counter stream
}

// With no epoch open, the coalescing engine must be invisible: no
// aggregated messages, no per-thread stats, and a bit-identical repeat.
std::pair<double, std::string> plain_run() {
  trace::Tracer tracer;
  sim::Engine e;
  Runtime rt(e, cfg(4, 2, &tracer));
  auto cells = rt.heap().all_alloc<std::uint64_t>(4, 1);
  for (int i = 0; i < 4; ++i) *cells.at(i).raw = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    const int peer = (t.rank() + 2) % 4;  // cross-node partner
    co_await t.put(cells.at(peer), static_cast<std::uint64_t>(t.rank()));
    (void)co_await t.fetch_add(cells.at(peer), std::uint64_t{1});
    co_await t.barrier();
    EXPECT_FALSE(t.coalescing());
    EXPECT_EQ(t.coalesce_stats(), nullptr);  // engine never engaged
  });
  rt.run_to_completion();
  EXPECT_EQ(rt.counters().total("net.aggregated"), 0u);
  EXPECT_EQ(rt.counters().total("net.coalesced_ops"), 0u);
  EXPECT_EQ(tracer.counter_total("gas.access.coalesced"), 0u);
  std::ostringstream os;
  tracer.export_summary(os);
  return {sim::to_seconds(e.now()), os.str()};
}

TEST(Coalescer, NoEpochRunsAreBitIdenticalAndUninstrumented) {
  const auto [t1, s1] = plain_run();
  const auto [t2, s2] = plain_run();
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(s1, s2);
}

TEST(Coalescer, GupsCoalescedRestoresTableAndBeatsNaive) {
  auto gups = [](stream::GupsVariant v) {
    sim::Engine e;
    Runtime rt(e, cfg(16, 4));
    stream::RandomAccess ra(rt, 14);
    const auto r = ra.run(v, 1024, /*passes=*/2);
    EXPECT_TRUE(ra.verify());  // xor involution across deferred flushes
    return r.gups;
  };
  const double naive = gups(stream::GupsVariant::naive);
  const double coalesced = gups(stream::GupsVariant::coalesced);
  EXPECT_GT(coalesced, 1.5 * naive);
}

}  // namespace
