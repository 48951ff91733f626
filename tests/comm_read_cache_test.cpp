// The software read cache (src/comm/read_cache) and its gas::Thread epoch
// API: hit/miss/LRU accounting, set-aliasing eviction, read-your-writes
// through the coalescer composition, coherence events (AMOs, barriers,
// locks), transparency (cached and uncached runs compute identical
// results), deterministic replays, and the no-epoch bit-identity
// guarantee — plus the virtual heap offsets the tags key on.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/read_cache.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "gas/gas.hpp"
#include "gas/lock.hpp"
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

TEST(ReadCache, EpochValidationAndGuardUnwind) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      EXPECT_FALSE(t.read_caching());
      EXPECT_EQ(t.read_cache_stats(), nullptr);  // engine never engaged
      t.end_read_cache();                        // no-op when closed

      comm::CacheParams bad;
      bad.line_bytes = 48;  // not a power of two
      EXPECT_THROW(t.begin_read_cache(bad), std::invalid_argument);
      bad = {};
      bad.lines = 6;  // not a multiple of the 4 ways
      EXPECT_THROW(t.begin_read_cache(bad), std::invalid_argument);
      EXPECT_FALSE(t.read_caching());

      t.begin_read_cache();
      EXPECT_TRUE(t.read_caching());
      EXPECT_THROW(t.begin_read_cache(), std::logic_error);  // no nesting
      t.end_read_cache();
      EXPECT_FALSE(t.read_caching());

      {
        gas::CachedEpoch epoch(t);
        EXPECT_TRUE(t.read_caching());
        // Guard destroyed without end(): the unwind path.
      }
      EXPECT_FALSE(t.read_caching());
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
}

// One remote line of 8 words: the first get fills it in one round trip,
// the remaining seven serve from the cache.
TEST(ReadCache, BurstWithinOneLineHitsAfterOneFill) {
  trace::Tracer tracer;
  sim::Engine e;
  Runtime rt(e, cfg(2, 2, &tracer));  // one rank per node: rank 1 is remote
  auto cells = rt.heap().alloc<std::uint64_t>(1, 16);
  for (int i = 0; i < 16; ++i) cells.raw[i] = 100 + i;
  // Pick a 64-byte-aligned starting element so the 8-word burst spans
  // exactly one cache line regardless of where the chunk landed in the
  // owner's virtual segment.
  std::size_t a0 = 0;
  while (rt.heap().offset_of(1, cells.raw + a0) % 64 != 0) ++a0;
  std::uint64_t sum = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      comm::CacheParams p;
      p.line_bytes = 64;
      gas::CachedEpoch epoch(t, p);
      for (std::size_t k = 0; k < 8; ++k) {
        sum += co_await t.get(cells + static_cast<std::ptrdiff_t>(a0 + k));
      }
      epoch.end();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  std::uint64_t expect = 0;
  for (std::size_t k = 0; k < 8; ++k) expect += 100 + a0 + k;
  EXPECT_EQ(sum, expect);
  const comm::CacheStats* s = rt.thread(0).read_cache_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->misses, 1u);
  EXPECT_EQ(s->hits, 7u);
  EXPECT_EQ(s->evictions, 0u);
  EXPECT_DOUBLE_EQ(rt.network().total_bytes(), 64.0);  // the one line fill
  // The counts live in the attached tracer's registry at every trace level.
  EXPECT_EQ(tracer.counter_total("gas.cache.hits"), 7u);
  EXPECT_EQ(tracer.counter_total("gas.cache.misses"), 1u);
}

// Five same-set lines in a 4-way set force LRU eviction; the least
// recently touched line is the victim.
TEST(ReadCache, SetAliasingEvictsLeastRecentlyUsed) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().alloc<std::uint64_t>(1, 96);
  for (int i = 0; i < 96; ++i) cells.raw[i] = static_cast<std::uint64_t>(i);
  std::size_t a0 = 0;
  while (rt.heap().offset_of(1, cells.raw + a0) % 64 != 0) ++a0;
  // lines=8 over 4 ways -> 2 sets; stride of 2 cache lines (16 words)
  // keeps every access in the same set.
  auto elem = [&](std::size_t line) {
    return cells + static_cast<std::ptrdiff_t>(a0 + 16 * line);
  };
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      comm::CacheParams p;
      p.line_bytes = 64;
      p.lines = 8;
      gas::CachedEpoch epoch(t, p);
      for (std::size_t line = 0; line < 4; ++line) {
        (void)co_await t.get(elem(line));  // miss: fills way `line`
      }
      (void)co_await t.get(elem(0));  // hit: line 0 now most recent
      (void)co_await t.get(elem(4));  // miss: evicts line 1 (LRU)
      (void)co_await t.get(elem(0));  // hit: survived the eviction
      (void)co_await t.get(elem(1));  // miss again: was the victim
      epoch.end();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  const comm::CacheStats* s = rt.thread(0).read_cache_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->misses, 6u);
  EXPECT_EQ(s->hits, 2u);
  EXPECT_EQ(s->evictions, 2u);  // line 1, then line 2
}

// Read-your-writes through BOTH engines: a deferred coalesced put to a
// line the cache holds must flush and invalidate before the next get.
TEST(ReadCache, ReadYourWritesThroughCoalescerComposition) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().all_alloc<std::uint64_t>(2, 1);
  *cells.at(0).raw = 0;
  *cells.at(1).raw = 0;
  std::uint64_t observed = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      t.begin_coalesce();
      gas::CachedEpoch epoch(t);
      (void)co_await t.get(cells.at(1));         // fills the line (value 0)
      co_await t.put(cells.at(1), std::uint64_t{42});  // deferred + invalidate
      EXPECT_NE(t.read_cache_stats(), nullptr);
      if (t.read_cache_stats() != nullptr) {
        EXPECT_GE(t.read_cache_stats()->invalidations, 1u);
      }
      observed = co_await t.get(cells.at(1));  // conflict flush, fresh fill
      epoch.end();
      co_await t.end_coalesce();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(observed, 42u);
  const comm::Stats* cs = rt.thread(0).coalesce_stats();
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->flushes_conflict, 1u);
  EXPECT_EQ(rt.thread(0).read_cache_stats()->misses, 2u);  // refetched
}

// Regression: a launched copy's read-cache invalidation happens at ISSUE
// time, in the copy() call, not when the launched transfer eventually runs.
// A cached get between issue and completion must re-fetch (miss) instead of
// being served a stale hit across the in-flight put — and once the returned
// future resolves, a get must observe the payload (read-your-writes).
TEST(ReadCache, LaunchedCopyInvalidatesAtIssueAndReadsYourWrites) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().all_alloc<std::uint64_t>(2, 1);
  *cells.at(0).raw = 0;
  *cells.at(1).raw = 7;
  std::uint64_t resolved_value = 0;
  std::uint64_t in_flight_hits = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      gas::CachedEpoch epoch(t);
      (void)co_await t.get(cells.at(1));  // miss: line cached (value 7)
      const std::uint64_t payload = 42;
      auto fut = t.launch_async(t.copy(cells.at(1), &payload, 1));
      // Issuing the async put must already have dropped the covered line.
      EXPECT_GE(t.read_cache_stats()->invalidations, 1u);
      const std::uint64_t hits_before = t.read_cache_stats()->hits;
      (void)co_await t.get(cells.at(1));  // in flight: re-fetch, never a hit
      in_flight_hits = t.read_cache_stats()->hits - hits_before;
      co_await fut.wait();
      resolved_value = co_await t.get(cells.at(1));
      epoch.end();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(in_flight_hits, 0u);
  EXPECT_EQ(resolved_value, 42u);
}

// The same issue-time contract for a packed put: launching a strided copy
// drops exactly the lines its regions cover before the call returns, and
// the line in its stride gap stays cached. While the put is in flight the
// gap line still hits and the covered line misses.
TEST(ReadCache, LaunchedStridedPutInvalidatesCoveredLinesAtIssue) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().alloc<std::uint64_t>(1, 64);
  for (int i = 0; i < 64; ++i) cells.raw[i] = static_cast<std::uint64_t>(i);
  std::size_t a0 = 0;
  while (rt.heap().offset_of(1, cells.raw + a0) % 64 != 0) ++a0;
  // 8 words = one 64 B line: rows(8, 2, 16) covers lines 0 and 2 and skips
  // line 1.
  auto line = [&](std::size_t l) {
    return cells + static_cast<std::ptrdiff_t>(a0 + 8 * l);
  };
  const auto spec = gas::StridedSpec::rows(8, 2, 16);
  const std::vector<std::uint64_t> src(spec.elems(), 99);
  std::uint64_t issue_invalidations = 0, gap_hits = 0, covered_misses = 0;
  bool in_flight = false;
  std::uint64_t covered_value = 0, gap_value = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      gas::CachedEpoch epoch(t);
      (void)co_await t.get(line(0));  // miss: covered line cached
      (void)co_await t.get(line(1));  // miss: gap line cached
      const comm::CacheStats before = *t.read_cache_stats();
      auto fut = t.launch_async(t.copy_strided(line(0), spec, src.data()));
      issue_invalidations =
          t.read_cache_stats()->invalidations - before.invalidations;
      (void)co_await t.get(line(1));  // gap: still a hit
      gap_hits = t.read_cache_stats()->hits - before.hits;
      in_flight = !fut.ready();
      (void)co_await t.get(line(0));  // covered: re-fetched
      covered_misses = t.read_cache_stats()->misses - before.misses;
      co_await fut.wait();
      covered_value = co_await t.get(line(0));
      gap_value = co_await t.get(line(1));
      epoch.end();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(issue_invalidations, 1u);  // line 0 only; line 2 was never cached
  EXPECT_EQ(gap_hits, 1u);
  EXPECT_TRUE(in_flight);
  EXPECT_EQ(covered_misses, 1u);
  EXPECT_EQ(covered_value, 99u);
  EXPECT_EQ(gap_value, a0 + 8);
}

// AMOs and barriers are coherence points: both drop cached lines so the
// next get refetches.
TEST(ReadCache, AmoAndBarrierInvalidate) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  auto cells = rt.heap().all_alloc<std::uint64_t>(2, 1);
  *cells.at(0).raw = 0;
  *cells.at(1).raw = 10;
  std::uint64_t after_amo = 0, after_barrier = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      gas::CachedEpoch epoch(t);
      (void)co_await t.get(cells.at(1));  // miss: line cached
      (void)co_await t.fetch_add(cells.at(1), std::uint64_t{5});
      EXPECT_GE(t.read_cache_stats()->invalidations, 1u);
      after_amo = co_await t.get(cells.at(1));  // miss: must see 15
      co_await t.barrier();                     // fences the whole cache
      after_barrier = co_await t.get(cells.at(1));  // miss again
      epoch.end();
    } else {
      co_await t.barrier();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(after_amo, 15u);
  EXPECT_EQ(after_barrier, 15u);
  const comm::CacheStats* s = rt.thread(0).read_cache_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->misses, 3u);
  EXPECT_EQ(s->hits, 0u);
}

// upc_lock is a coherence point: data published under the lock must be
// refetched after acquire, never served from a stale line.
TEST(ReadCache, LockAcquireDropsStaleLines) {
  sim::Engine e;
  Runtime rt(e, cfg(2, 2));
  gas::GlobalLock lock(rt, 0);
  auto cells = rt.heap().all_alloc<std::uint64_t>(2, 1);
  *cells.at(0).raw = 0;
  *cells.at(1).raw = 1;
  std::uint64_t stale = 0, fresh = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (t.rank() == 0) {
      gas::CachedEpoch epoch(t);
      stale = co_await t.get(cells.at(1));  // caches the published cell
      co_await t.barrier();                 // let rank 1 update it
      co_await t.barrier();
      co_await lock.acquire(t);
      fresh = co_await t.get(cells.at(1));  // must refetch: sees 2
      co_await lock.release(t);
      epoch.end();
    } else {
      co_await t.barrier();
      co_await lock.acquire(t);
      *cells.at(1).raw = 2;  // publish under the lock (own cell)
      co_await lock.release(t);
      co_await t.barrier();
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(stale, 1u);
  EXPECT_EQ(fresh, 2u);
}

// The gather workload end-to-end: identical checksum with the cache on
// and off, fewer wire messages when on, and the invariant checker signs
// off on the accounting.
TEST(ReadCache, GatherTransparencyAndInvariants) {
  auto gather = [](bool cached, trace::Tracer* tracer) {
    sim::Engine e;
    Runtime rt(e, cfg(16, 4, tracer));
    stream::RandomAccess ra(rt, 12);
    stream::GatherParams p;
    p.bursts = 8;
    p.burst_len = 32;
    p.cached = cached;
    p.cache.line_bytes = 256;
    const auto r = ra.run_gather(p);
    comm::CacheStats total;
    for (int rank = 0; rank < 16; ++rank) {
      if (const comm::CacheStats* s = rt.thread(rank).read_cache_stats()) {
        total.hits += s->hits;
        total.misses += s->misses;
        total.evictions += s->evictions;
        total.invalidations += s->invalidations;
      }
    }
    return std::make_tuple(r.checksum, rt.network().total_messages(), total);
  };
  trace::Tracer tracer;
  const auto [cached_sum, cached_msgs, stats] = gather(true, &tracer);
  const auto [plain_sum, plain_msgs, plain_stats] = gather(false, nullptr);
  EXPECT_EQ(plain_stats.hits + plain_stats.misses, 0u);
  EXPECT_GT(stats.hits, stats.misses);  // bursts actually amortized
  EXPECT_LT(cached_msgs, plain_msgs);

  fault::Violations v;
  fault::check_cache_transparency(cached_sum, plain_sum, &stats, v);
  for (const auto& s : v) ADD_FAILURE() << s;
  EXPECT_TRUE(v.empty());

  // The checker actually bites: a corrupted "uncached" result trips it.
  fault::Violations bad;
  fault::check_cache_transparency(cached_sum, plain_sum ^ 1, &stats, bad);
  EXPECT_FALSE(bad.empty());
}

// Fixed seed, two runs, byte-identical schedules — WITH the cache on. The
// tags key on virtual segment offsets, never raw host pointers, so ASLR
// cannot perturb the modeled schedule.
std::pair<double, std::string> cached_gather_run() {
  trace::Tracer tracer;
  sim::Engine e;
  Runtime rt(e, cfg(8, 4, &tracer));
  stream::RandomAccess ra(rt, 12);
  stream::GatherParams p;
  p.bursts = 6;
  p.burst_len = 24;
  p.cached = true;
  p.cache.lines = 16;  // small: exercise evictions too
  const auto r = ra.run_gather(p);
  (void)r;
  std::ostringstream os;
  tracer.export_summary(os);
  return {sim::to_seconds(e.now()), os.str()};
}

TEST(ReadCache, CachedScheduleIsDeterministic) {
  const auto [t1, s1] = cached_gather_run();
  const auto [t2, s2] = cached_gather_run();
  EXPECT_EQ(t1, t2);  // bit-identical virtual end time
  EXPECT_EQ(s1, s2);  // identical event/counter stream
}

// With no epoch open, the cache must be invisible: no stats object, zero
// gas.cache.* counters, and a bit-identical repeat.
std::pair<double, std::string> plain_gather_run() {
  trace::Tracer tracer;
  sim::Engine e;
  Runtime rt(e, cfg(8, 4, &tracer));
  stream::RandomAccess ra(rt, 12);
  stream::GatherParams p;
  p.bursts = 6;
  p.burst_len = 24;
  const auto r = ra.run_gather(p);
  (void)r;
  for (int rank = 0; rank < 8; ++rank) {
    EXPECT_EQ(rt.thread(rank).read_cache_stats(), nullptr);
  }
  EXPECT_EQ(tracer.counter_total("gas.cache.hits"), 0u);
  EXPECT_EQ(tracer.counter_total("gas.cache.misses"), 0u);
  EXPECT_EQ(tracer.counter_total("gas.cache.epoch.begin"), 0u);
  std::ostringstream os;
  tracer.export_summary(os);
  return {sim::to_seconds(e.now()), os.str()};
}

TEST(ReadCache, NoEpochRunsAreBitIdenticalAndUninstrumented) {
  const auto [t1, s1] = plain_gather_run();
  const auto [t2, s2] = plain_gather_run();
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(s1, s2);
}

// The cache-storm fault template drops cached lines at a seeded rate: the
// perturbation must be deterministic per seed and must never change the
// computed checksum (the cache holds tags, not data).
TEST(ReadCache, CacheStormIsDeterministicAndTransparent) {
  auto stormy = [](std::uint64_t seed) {
    sim::Engine e;
    Runtime rt(e, cfg(8, 2));
    fault::FaultPlan plan(fault::plan_template("cache-storm", seed));
    plan.install(rt);
    stream::RandomAccess ra(rt, 12);
    stream::GatherParams p;
    p.bursts = 8;
    p.burst_len = 32;
    p.cached = true;
    const auto r = ra.run_gather(p);
    return std::make_tuple(r.checksum, sim::to_seconds(e.now()),
                           rt.counters().total("fault.cache.drop"));
  };
  const auto [sum1, time1, dropped1] = stormy(7);
  const auto [sum2, time2, dropped2] = stormy(7);
  EXPECT_EQ(sum1, sum2);
  EXPECT_EQ(time1, time2);
  EXPECT_EQ(dropped1, dropped2);
  EXPECT_GT(dropped1, 0u);

  // Same workload, no storm: identical checksum, different schedule.
  sim::Engine e;
  Runtime rt(e, cfg(8, 2));
  stream::RandomAccess ra(rt, 12);
  stream::GatherParams p;
  p.bursts = 8;
  p.burst_len = 32;
  p.cached = true;
  EXPECT_EQ(ra.run_gather(p).checksum, sum1);
}

// The read-only reduction adopter: gas::reduce_gather computes the same
// value with and without its cache epoch, and the cached pass actually
// amortizes (hits outnumber misses on a contiguous sweep).
TEST(ReadCache, ReduceGatherCachedMatchesUncached) {
  auto reduce = [](const comm::CacheParams* cache) {
    sim::Engine e;
    Runtime rt(e, cfg(4, 2));
    auto a = rt.heap().all_alloc<std::uint64_t>(256, 64);
    for (int i = 0; i < 256; ++i) {
      *a.at(static_cast<std::uint64_t>(i)).raw =
          static_cast<std::uint64_t>(i * i + 1);
    }
    std::uint64_t total = 0;
    rt.spmd([&](Thread& t) -> sim::Task<void> {
      co_await t.barrier();
      if (t.rank() == 0) {
        total = co_await gas::reduce_gather(
            t, a, std::uint64_t{0},
            [](std::uint64_t acc, std::uint64_t v) { return acc + v; }, cache);
      }
      co_await t.barrier();
    });
    rt.run_to_completion();
    const comm::CacheStats* s = rt.thread(0).read_cache_stats();
    return std::make_pair(total, s == nullptr ? comm::CacheStats{} : *s);
  };
  comm::CacheParams p;
  p.line_bytes = 256;
  const auto [cached, cs] = reduce(&p);
  const auto [plain, ps] = reduce(nullptr);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 256; ++i) expect += i * i + 1;
  EXPECT_EQ(cached, expect);
  EXPECT_EQ(plain, expect);
  EXPECT_GT(cs.hits, cs.misses);
  EXPECT_EQ(ps.hits + ps.misses, 0u);
}

// The virtual segment offsets the tags key on: contiguous within a chunk,
// stable across identically-allocated runtimes, -1 for foreign pointers.
TEST(SharedHeap, OffsetOfIsContiguousDeterministicAndRejectsForeign) {
  auto offsets = [] {
    sim::Engine e;
    Runtime rt(e, cfg(2, 2));
    auto a = rt.heap().alloc<std::uint64_t>(1, 8);
    auto b = rt.heap().alloc<std::uint64_t>(1, 8);
    const std::int64_t base = rt.heap().offset_of(1, a.raw);
    EXPECT_GE(base, 0);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(rt.heap().offset_of(1, a.raw + i), base + 8 * i);
    }
    const std::int64_t second = rt.heap().offset_of(1, b.raw);
    EXPECT_GT(second, base);
    std::uint64_t local = 0;
    EXPECT_EQ(rt.heap().offset_of(1, &local), -1);   // not in the segment
    EXPECT_EQ(rt.heap().offset_of(0, a.raw), -1);    // wrong owner
    return std::make_pair(base, second);
  };
  const auto run1 = offsets();
  const auto run2 = offsets();
  EXPECT_EQ(run1, run2);  // ASLR-proof: same alloc sequence, same offsets
}

}  // namespace
