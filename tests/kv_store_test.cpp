// KV store core battery (ISSUE: src/kv): shard-map determinism across rank
// counts, selector policy, host-mirror oracles for randomized op sequences
// on each access path, AMO-vs-RPC final-state equivalence, and the
// collision/tombstone edge cases of the slot protocol.
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gas/gas.hpp"
#include "kv/selector.hpp"
#include "kv/shard_map.hpp"
#include "kv/workload.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

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

// --- shard map ----------------------------------------------------------

TEST(KvShardMap, KeyToShardIsIndependentOfRankCount) {
  kv::ShardMap eight((std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}), 64);
  kv::ShardMap two((std::vector<int>{0, 1}), 64);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(eight.shard_of(key), two.shard_of(key)) << key;
  }
}

TEST(KvShardMap, OwnersDealRoundRobinInMemberOrder) {
  kv::ShardMap map((std::vector<int>{3, 5, 9}), 8);
  EXPECT_EQ(map.shards(), 8);
  EXPECT_EQ(map.owner_of(0), 3);
  EXPECT_EQ(map.owner_of(1), 5);
  EXPECT_EQ(map.owner_of(2), 9);
  EXPECT_EQ(map.owner_of(3), 3);
  EXPECT_EQ(map.owner_of(7), 5);
}

TEST(KvShardMap, DefaultShardCountCoversEveryOwnerTwice) {
  kv::ShardMap map(std::vector<int>{0, 1, 2});  // 2x3 = 6 -> 8 shards
  EXPECT_EQ(map.shards(), 8);
  kv::ShardMap one(std::vector<int>{0});
  EXPECT_EQ(one.shards(), 2);
}

TEST(KvShardMap, RejectsEmptyOwnersAndNonPowerOfTwoShards) {
  EXPECT_THROW(kv::ShardMap(std::vector<int>{}), std::invalid_argument);
  EXPECT_THROW(kv::ShardMap(std::vector<int>{0, 1}, 12),
               std::invalid_argument);
  EXPECT_THROW(kv::ShardMap(std::vector<int>{0, 1}, -4),
               std::invalid_argument);
}

TEST(KvShardMap, ShardOfSpreadsKeysAcrossShards) {
  kv::ShardMap map((std::vector<int>{0, 1, 2, 3}), 16);
  std::vector<int> hits(16, 0);
  for (std::uint64_t key = 0; key < 1600; ++key) {
    ++hits[static_cast<std::size_t>(map.shard_of(key))];
  }
  for (int s = 0; s < 16; ++s) {
    EXPECT_GT(hits[static_cast<std::size_t>(s)], 0) << "shard " << s;
  }
}

// --- selector -----------------------------------------------------------

TEST(KvSelector, OverrideWinsOverEveryPolicy) {
  kv::KvSelector sel;
  sel.override_path = kv::KvPath::rpc;
  EXPECT_EQ(sel.choose(kv::KvOp::get, /*same_supernode=*/true),
            kv::KvPath::rpc);
  sel.override_path = kv::KvPath::amo;
  EXPECT_EQ(sel.choose(kv::KvOp::put, /*same_supernode=*/false),
            kv::KvPath::amo);
}

TEST(KvSelector, AutoPrefersAmoLocallyAndForReadsRpcForRemoteWrites) {
  const kv::KvSelector sel;
  EXPECT_EQ(sel.choose(kv::KvOp::put, true), kv::KvPath::amo);
  EXPECT_EQ(sel.choose(kv::KvOp::get, false), kv::KvPath::amo);
  EXPECT_EQ(sel.choose(kv::KvOp::put, false), kv::KvPath::rpc);
  EXPECT_EQ(sel.choose(kv::KvOp::update, false), kv::KvPath::rpc);
  EXPECT_EQ(sel.choose(kv::KvOp::erase, false), kv::KvPath::rpc);
}

TEST(KvSelector, ParseAndNamesRoundTrip) {
  EXPECT_EQ(kv::parse_kv_path("amo"), kv::KvPath::amo);
  EXPECT_EQ(kv::parse_kv_path("rpc"), kv::KvPath::rpc);
  EXPECT_EQ(kv::parse_kv_path("auto"), kv::KvPath::automatic);
  EXPECT_FALSE(kv::parse_kv_path("carrier-pigeon").has_value());
  EXPECT_STREQ(kv::kv_path_name(kv::KvPath::automatic), "auto");
  EXPECT_STREQ(kv::kv_op_name(kv::KvOp::update), "update");
  EXPECT_EQ(kv::parse_key_dist("zipfian"), kv::KeyDist::zipfian);
  EXPECT_EQ(kv::parse_key_dist("uniform"), kv::KeyDist::uniform);
  EXPECT_FALSE(kv::parse_key_dist("pareto").has_value());
}

// --- host-mirror oracle over randomized op sequences --------------------

// Run `nops` seeded ops per rank (rank-partitioned keys) on `path`, check
// every returned value against an std::unordered_map mirror, and return
// the final live snapshot for cross-path comparison.
std::vector<std::pair<std::uint64_t, std::uint64_t>> mirror_battery(
    kv::KvPath path, std::uint64_t seed, int threads = 4, int nops = 64) {
  sim::Engine engine;
  Runtime rt(engine, small_config(threads));
  async::RpcDomain rpc(rt);
  kv::KvStore::Params params;
  params.capacity = 64;
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt, 8), params);

  constexpr std::uint64_t kKeys = 48;
  struct Op {
    kv::KvOp op;
    std::uint64_t key, value, want;
    bool want_found;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> mirror;
  std::vector<std::vector<Op>> plans(static_cast<std::size_t>(threads));
  util::SplitMix64 sm(seed);
  for (int r = 0; r < threads; ++r) {
    for (int i = 0; i < nops; ++i) {
      Op op{};
      op.key = static_cast<std::uint64_t>(r) +
               static_cast<std::uint64_t>(threads) *
                   (sm.next() % (kKeys / static_cast<std::uint64_t>(threads)));
      const std::uint64_t kind = sm.next() % 4;
      const auto it = mirror.find(op.key);
      if (kind == 0) {
        op.op = kv::KvOp::put;
        op.value = sm.next();
        op.want_found = true;
        mirror[op.key] = op.value;
      } else if (kind == 1) {
        op.op = kv::KvOp::get;
        op.want_found = it != mirror.end();
        op.want = op.want_found ? it->second : 0;
      } else if (kind == 2) {
        op.op = kv::KvOp::update;
        op.value = sm.next() % 512;
        op.want_found = it != mirror.end();
        if (op.want_found) op.want = (it->second += op.value);
      } else {
        op.op = kv::KvOp::erase;
        op.want_found = it != mirror.end();
        if (op.want_found) mirror.erase(it);
      }
      plans[static_cast<std::size_t>(r)].push_back(op);
    }
  }

  rt.spmd([&](Thread& t) -> sim::Task<void> {
    for (const Op& op : plans[static_cast<std::size_t>(t.rank())]) {
      switch (op.op) {
        case kv::KvOp::get: {
          const kv::KvHit h = co_await store.get(t, op.key, path);
          EXPECT_EQ(h.found != 0, op.want_found) << "get key " << op.key;
          if (op.want_found) {
            EXPECT_EQ(h.value, op.want);
          }
          break;
        }
        case kv::KvOp::put:
          EXPECT_TRUE(co_await store.put(t, op.key, op.value, path));
          break;
        case kv::KvOp::erase:
          EXPECT_EQ(co_await store.erase(t, op.key, path), op.want_found);
          break;
        case kv::KvOp::update: {
          const kv::KvHit h = co_await store.update(t, op.key, op.value,
                                                    path);
          EXPECT_EQ(h.found != 0, op.want_found) << "update key " << op.key;
          if (op.want_found) {
            EXPECT_EQ(h.value, op.want);
          }
          break;
        }
      }
    }
    co_await t.barrier();
  });
  rt.run_to_completion();

  // Final state == mirror, and the maintained live counters match a
  // recount (the conservation pair the fuzz invariant also checks).
  auto snap = store.snapshot();
  EXPECT_EQ(snap.size(), mirror.size());
  for (const auto& [key, value] : snap) {
    const auto it = mirror.find(key);
    if (it == mirror.end()) {
      ADD_FAILURE() << "stray live key " << key;
      continue;
    }
    EXPECT_EQ(it->second, value) << "key " << key;
  }
  for (int s = 0; s < store.shard_map().shards(); ++s) {
    EXPECT_EQ(store.shard_live(s), store.shard_live_recount(s));
  }
  std::sort(snap.begin(), snap.end());
  return snap;
}

TEST(KvStore, AmoPathMatchesHostMirror) {
  (void)mirror_battery(kv::KvPath::amo, 0xA11CE5EEDULL);
}

TEST(KvStore, RpcPathMatchesHostMirror) {
  (void)mirror_battery(kv::KvPath::rpc, 0xB0BB5EEDULL);
}

TEST(KvStore, AutoPathMatchesHostMirror) {
  (void)mirror_battery(kv::KvPath::automatic, 0xCA5CADE5ULL);
}

TEST(KvStore, AmoAndRpcPathsAreEquivalent) {
  // The same op sequence must leave the same final state whichever path
  // executes it (timing differs; state must not).
  const auto amo = mirror_battery(kv::KvPath::amo, 0xD15EA5EULL);
  const auto rpc = mirror_battery(kv::KvPath::rpc, 0xD15EA5EULL);
  const auto mix = mirror_battery(kv::KvPath::automatic, 0xD15EA5EULL);
  EXPECT_EQ(amo, rpc);
  EXPECT_EQ(amo, mix);
}

// --- collision and tombstone edge cases ---------------------------------

TEST(KvStore, CollidingKeysProbeAndEraseReusesTombstones) {
  sim::Engine engine;
  Runtime rt(engine, small_config(2));
  async::RpcDomain rpc(rt);
  kv::KvStore::Params params;
  params.capacity = 8;  // one shard chain of 8 slots
  kv::KvStore store(rt, rpc, kv::ShardMap(std::vector<int>{0}, 2), params);

  // Pick 5 keys that all land in shard 0: guaranteed chain collisions in
  // an 8-slot table.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < 5; ++k) {
    if (store.shard_map().shard_of(k) == 0) keys.push_back(k);
  }

  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      for (std::uint64_t k : keys) {
        EXPECT_TRUE(co_await store.put(t, k, k * 100 + 1));
      }
      // Erase the middle key, then look past its tombstone: later keys in
      // the chain must still resolve.
      EXPECT_TRUE(co_await store.erase(t, keys[2]));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const kv::KvHit h = co_await store.get(t, keys[i]);
        EXPECT_EQ(h.found != 0, i != 2) << "key " << keys[i];
      }
      // Reinsert: the tombstone must be reused, not a fresh slot.
      const std::uint64_t used_before = store.max_shard_slots_used();
      EXPECT_TRUE(co_await store.put(t, keys[2], 777));
      EXPECT_EQ(store.max_shard_slots_used(), used_before);
      const kv::KvHit h = co_await store.get(t, keys[2]);
      EXPECT_EQ(h.value, 777u);
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(store.live(), 5u);
  EXPECT_GE(store.stats().tombstones, 1u);
}

TEST(KvStore, PutReportsFullWhenChainIsExhausted) {
  sim::Engine engine;
  Runtime rt(engine, small_config(2));
  async::RpcDomain rpc(rt);
  kv::KvStore::Params params;
  params.capacity = 2;  // tiny: 2 slots per shard
  kv::KvStore store(rt, rpc, kv::ShardMap(std::vector<int>{0}, 2), params);

  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < 3; ++k) {
    if (store.shard_map().shard_of(k) == 0) keys.push_back(k);
  }
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      EXPECT_TRUE(co_await store.put(t, keys[0], 1));
      EXPECT_TRUE(co_await store.put(t, keys[1], 2));
      EXPECT_FALSE(co_await store.put(t, keys[2], 3));  // chain full
      // Existing keys still update in place at full occupancy.
      EXPECT_TRUE(co_await store.put(t, keys[0], 9));
      const kv::KvHit h = co_await store.get(t, keys[0]);
      EXPECT_EQ(h.value, 9u);
    }
    co_await t.barrier();
  });
  rt.run_to_completion();
  EXPECT_EQ(store.live(), 2u);
}

TEST(KvStore, ConcurrentUpdatesOnOneKeyLinearize) {
  // Every rank fetch-adds the same key; claims must serialize the
  // read-modify-writes so no delta is lost.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerRank = 10;
  sim::Engine engine;
  Runtime rt(engine, small_config(kThreads));
  async::RpcDomain rpc(rt);
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt, 16));

  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      EXPECT_TRUE(co_await store.put(t, 42, 0));
    }
    co_await t.barrier();
    const kv::KvPath path =
        t.rank() % 2 == 0 ? kv::KvPath::amo : kv::KvPath::rpc;
    for (std::uint64_t i = 0; i < kPerRank; ++i) {
      const kv::KvHit h = co_await store.update(t, 42, 1, path);
      EXPECT_TRUE(h.found != 0);
    }
    co_await t.barrier();
  });
  rt.run_to_completion();

  const auto snap = store.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.front().second, kPerRank * kThreads);
}

TEST(KvStore, FullSlotClaimReverifiesKeyAfterTombstoneReuse) {
  // ABA regression: in the several-round-trip window between a remote
  // rank's probe read and its claim CAS, the owner can erase the probed key
  // and reinsert a DIFFERENT key into the same slot (tombstone reuse),
  // returning the state word to `full`. A claim that checks only the state
  // word then mutates the wrong key. Sweep the owner's start delay across
  // the window so some iteration lands erase+reuse exactly inside the
  // claim, for each mutating op; k2 must survive every interleaving.
  constexpr std::size_t kCap = 8;
  const auto in_shard0 = [](std::uint64_t k) {
    return (kv::mix64(k) & 1) == 0;
  };
  const auto chain_start = [&](std::uint64_t k) {
    return static_cast<std::size_t>(kv::mix64(k) >> 17) & (kCap - 1);
  };
  // Two shard-0 keys whose probe chains START on the same slot of an
  // 8-slot shard: into an otherwise-empty shard, erase(k1) + put(k2)
  // reuses k1's exact slot.
  std::uint64_t k1 = 0;
  while (!in_shard0(k1)) ++k1;
  std::uint64_t k2 = k1 + 1;
  while (!in_shard0(k2) || chain_start(k2) != chain_start(k1)) ++k2;

  for (int op = 0; op < 3; ++op) {
    for (int step = 0; step <= 40; ++step) {
      sim::Engine engine;
      Runtime rt(engine, small_config(2));
      async::RpcDomain rpc(rt);
      kv::KvStore::Params params;
      params.capacity = kCap;
      kv::KvStore store(rt, rpc, kv::ShardMap(std::vector<int>{0}, 2),
                        params);
      rt.spmd([&](Thread& t) -> sim::Task<void> {
        if (t.rank() == 0) {
          EXPECT_TRUE(co_await store.put(t, k1, 111, kv::KvPath::rpc));
        }
        co_await t.barrier();
        if (t.rank() == 1) {
          // The victim mutator: probes k1 over the wire on the AMO path.
          if (op == 0) {
            (void)co_await store.put(t, k1, 222, kv::KvPath::amo);
          } else if (op == 1) {
            (void)co_await store.erase(t, k1, kv::KvPath::amo);
          } else {
            (void)co_await store.update(t, k1, 5, kv::KvPath::amo);
          }
        } else {
          // The owner recycles k1's slot for k2 after a swept delay.
          co_await sim::delay(engine, sim::from_seconds(
                                          static_cast<double>(step) *
                                          250e-9));
          (void)co_await store.erase(t, k1, kv::KvPath::rpc);
          EXPECT_TRUE(co_await store.put(t, k2, 333, kv::KvPath::rpc));
        }
        co_await t.barrier();
        if (t.rank() == 1) {
          const kv::KvHit h = co_await store.get(t, k2);
          EXPECT_EQ(h.found, 1) << "op " << op << " step " << step;
          EXPECT_EQ(h.value, 333u) << "op " << op << " step " << step;
        }
        co_await t.barrier();
      });
      rt.run_to_completion();
      EXPECT_EQ(store.shard_live(0), store.shard_live_recount(0))
          << "op " << op << " step " << step;
      for (const auto& [key, value] : store.snapshot()) {
        EXPECT_TRUE(key == k1 || key == k2) << "stray key " << key;
      }
    }
  }
}

TEST(KvStore, StatsAttributeEveryOpToExactlyOnePath) {
  sim::Engine engine;
  Runtime rt(engine, small_config(4));
  async::RpcDomain rpc(rt);
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt));
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    const auto key = static_cast<std::uint64_t>(t.rank());
    EXPECT_TRUE(co_await store.put(t, key, 1, kv::KvPath::amo));
    (void)co_await store.get(t, key, kv::KvPath::rpc);
    (void)co_await store.update(t, key, 1);
    co_await t.barrier();
  });
  rt.run_to_completion();
  const kv::KvStats& st = store.stats();
  EXPECT_EQ(st.total_ops(), 12u);
  EXPECT_EQ(st.amo_ops + st.rpc_ops, st.total_ops());
  EXPECT_GE(st.amo_ops, 4u);  // the pinned amo puts
  EXPECT_GE(st.rpc_ops, 4u);  // the pinned rpc gets
}

// --- workload plumbing ---------------------------------------------------

TEST(KvWorkload, ZipfSamplerIsADistributionAndSkewsToTheHead) {
  kv::ZipfSampler zipf(100, 0.99);
  EXPECT_EQ(zipf.draw(0.0), 0u);
  EXPECT_LT(zipf.draw(0.999999), 100u);
  // The head must absorb far more mass than a uniform share.
  util::Xoshiro256ss rng(7);
  int head = 0;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.draw(rng.uniform()) < 10) ++head;
  }
  EXPECT_GT(head, kDraws / 3);  // uniform would give ~10%
}

TEST(KvWorkload, ServingRejectsInvalidParams) {
  sim::Engine engine;
  Runtime rt(engine, small_config(2));
  async::RpcDomain rpc(rt);
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt));
  kv::ServingParams p;
  p.read_fraction = 1.5;
  EXPECT_THROW((void)kv::run_serving(rt, store, p), std::invalid_argument);
  p = {};
  p.burst = 0.5;
  EXPECT_THROW((void)kv::run_serving(rt, store, p), std::invalid_argument);
  p = {};
  p.arrival_rate_hz = 0;
  EXPECT_THROW((void)kv::run_serving(rt, store, p), std::invalid_argument);
}

TEST(KvWorkload, ServingRunProducesCoherentPercentiles) {
  sim::Engine engine;
  Runtime rt(engine, small_config(8));
  async::RpcDomain rpc(rt);
  kv::KvStore::Params params;
  params.capacity = 256;
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt), params);
  kv::ServingParams p;
  p.keys = 128;
  p.ops_per_rank = 32;
  p.arrival_rate_hz = 2e5;
  const kv::ServingResult res = kv::run_serving(rt, store, p);
  EXPECT_EQ(res.ops, 8u * 32u);
  EXPECT_EQ(res.reads + res.writes, res.ops);
  EXPECT_GT(res.makespan_s, 0.0);
  EXPECT_GT(res.throughput_ops_s, 0.0);
  EXPECT_LE(res.p50_s, res.p99_s);
  EXPECT_LE(res.p99_s, res.p999_s);
  EXPECT_LE(res.p999_s, res.max_s + 1e-12);
  EXPECT_EQ(res.latency.total(), res.ops);
  EXPECT_LE(res.within_slo, res.ops);
  EXPECT_GE(res.slo_goodput_ops_s, 0.0);
  EXPECT_LE(res.slo_goodput_ops_s, res.throughput_ops_s + 1e-9);
}

}  // namespace
