#include "kv/store.hpp"

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace hupc::kv {

namespace {

/// Backoff after observing a busy (mid-claim) slot or losing a claim CAS:
/// guarantees virtual time advances between retries, so a retry loop can
/// never spin inside one engine instant.
constexpr double kBusyBackoffS = 500e-9;

/// Owner-side handler cost model: hash/dispatch plus a per-slot walk
/// charge — the privatized local work an RPC buys in exchange for the
/// request/reply round trip.
constexpr double kOwnerBaseS = 150e-9;
constexpr double kOwnerProbeS = 40e-9;

const trace::CounterId kGet = trace::intern("gas.kv.get");
const trace::CounterId kPut = trace::intern("gas.kv.put");
const trace::CounterId kErase = trace::intern("gas.kv.erase");
const trace::CounterId kUpdate = trace::intern("gas.kv.update");
const trace::CounterId kPathAmo = trace::intern("gas.kv.path.amo");
const trace::CounterId kPathRpc = trace::intern("gas.kv.path.rpc");
const trace::CounterId kProbe = trace::intern("gas.kv.probe");
const trace::CounterId kRetry = trace::intern("gas.kv.retry");
const trace::CounterId kInsert = trace::intern("gas.kv.insert");
const trace::CounterId kTombstone = trace::intern("gas.kv.tombstone");

}  // namespace

KvStore::KvStore(gas::Runtime& rt, async::RpcDomain& rpc, ShardMap map,
                 Params params)
    : rt_(&rt), rpc_(&rpc), map_(std::move(map)), params_(params) {
  capacity_ = 2;
  while (capacity_ < params_.capacity) capacity_ *= 2;
  shards_.reserve(static_cast<std::size_t>(map_.shards()));
  for (int s = 0; s < map_.shards(); ++s) {
    Shard sh;
    const int owner = map_.owner_of(s);
    sh.slots = rt.heap().alloc<Slot>(owner, capacity_);
    sh.meta = rt.heap().alloc<std::uint64_t>(owner, 2);
    // Fresh shared memory is zero: every slot is Slot{} (kEmpty) and both
    // meta counts start at 0.
    static_assert(kEmpty == 0, "zeroed slots must read as empty");
    shards_.push_back(sh);
  }
}

KvStats KvStore::stats() const {
  const trace::Counters& c = rt_->counters();
  return KvStats{.gets = c.total(kGet),
                 .puts = c.total(kPut),
                 .erases = c.total(kErase),
                 .updates = c.total(kUpdate),
                 .amo_ops = c.total(kPathAmo),
                 .rpc_ops = c.total(kPathRpc),
                 .probes = c.total(kProbe),
                 .retries = c.total(kRetry),
                 .inserts = c.total(kInsert),
                 .tombstones = c.total(kTombstone)};
}

void KvStore::note_probe(int rank, std::uint64_t n) {
  rt_->counters().add(kProbe, rank, n);
}

void KvStore::note_retry(int rank) {
  rt_->counters().add(kRetry, rank);
}

KvPath KvStore::resolve(KvOp op, gas::Thread& t, int shard,
                        KvPath call_override) {
  switch (op) {
    case KvOp::get:
      rt_->counters().add(kGet, t.rank());
      break;
    case KvOp::put:
      rt_->counters().add(kPut, t.rank());
      break;
    case KvOp::erase:
      rt_->counters().add(kErase, t.rank());
      break;
    case KvOp::update:
      rt_->counters().add(kUpdate, t.rank());
      break;
  }
  const int owner = map_.owner_of(shard);
  KvPath p = call_override != KvPath::automatic
                 ? call_override
                 : params_.selector.choose(
                       op, rt_->same_supernode(t.rank(), owner));
  if (p == KvPath::automatic) p = KvPath::amo;
  if (p == KvPath::amo) {
    rt_->counters().add(kPathAmo, t.rank());
  } else {
    rt_->counters().add(kPathRpc, t.rank());
  }
  return p;
}

sim::Task<KvHit> KvStore::get(gas::Thread& t, std::uint64_t key, KvPath path) {
  const int shard = map_.shard_of(key);
  const KvPath p = resolve(KvOp::get, t, shard, path);
  if (p == KvPath::amo) co_return co_await amo_get(t, shard, key);
  co_return co_await rpc_op(t, KvOp::get, shard, key, 0);
}

sim::Task<bool> KvStore::put(gas::Thread& t, std::uint64_t key,
                             std::uint64_t value, KvPath path) {
  const int shard = map_.shard_of(key);
  const KvPath p = resolve(KvOp::put, t, shard, path);
  if (p == KvPath::amo) co_return co_await amo_put(t, shard, key, value);
  const KvHit r = co_await rpc_op(t, KvOp::put, shard, key, value);
  co_return r.found != 0;
}

sim::Task<bool> KvStore::erase(gas::Thread& t, std::uint64_t key,
                               KvPath path) {
  const int shard = map_.shard_of(key);
  const KvPath p = resolve(KvOp::erase, t, shard, path);
  if (p == KvPath::amo) co_return co_await amo_erase(t, shard, key);
  const KvHit r = co_await rpc_op(t, KvOp::erase, shard, key, 0);
  co_return r.found != 0;
}

sim::Task<KvHit> KvStore::update(gas::Thread& t, std::uint64_t key,
                                 std::uint64_t delta, KvPath path) {
  const int shard = map_.shard_of(key);
  const KvPath p = resolve(KvOp::update, t, shard, path);
  if (p == KvPath::amo) co_return co_await amo_update(t, shard, key, delta);
  co_return co_await rpc_op(t, KvOp::update, shard, key, delta);
}

// --- caller-side AMO protocol -------------------------------------------

sim::Task<KvStore::Claim> KvStore::claim_full_slot(gas::Thread& t,
                                                   const Shard& sh,
                                                   std::size_t idx,
                                                   std::uint64_t key) {
  const std::uint64_t old =
      co_await t.compare_swap(state_ptr(sh, idx), kFull, kBusy);
  if (old != kFull) co_return Claim::lost;
  // Winning the CAS alone does not prove the slot still holds `key`: the
  // claim window between the probe read and the CAS is several round trips
  // wide, and in it the slot can be erased and its tombstone reused for a
  // DIFFERENT key (state cycles full -> tomb -> busy -> full, so the CAS
  // cannot tell — the classic ABA). Re-read the key under the claim; on a
  // mismatch hand the (untouched) slot back and make the caller re-probe.
  const std::uint64_t now = co_await t.get(key_ptr(sh, idx));
  note_probe(t.rank());
  if (now == key) co_return Claim::won;
  co_await t.put(state_ptr(sh, idx), kFull);
  co_return Claim::moved;
}

sim::Task<KvHit> KvStore::amo_get(gas::Thread& t, int shard,
                                  std::uint64_t key) {
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const std::size_t mask = capacity_ - 1;
  std::size_t idx = start_of(key);
  std::size_t walked = 0;
  while (walked < capacity_) {
    const Slot s = co_await t.get(slot_ptr(sh, idx));
    note_probe(t.rank());
    if (s.state == kBusy) {
      // A claimant is mid-publish: back off and re-read the same slot.
      note_retry(t.rank());
      co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
      continue;
    }
    if (s.state == kEmpty) co_return KvHit{};
    if (s.state == kFull && s.key == key) co_return KvHit{s.value, 1};
    idx = (idx + 1) & mask;
    ++walked;
  }
  co_return KvHit{};
}

sim::Task<bool> KvStore::amo_put(gas::Thread& t, int shard, std::uint64_t key,
                                 std::uint64_t value) {
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const std::size_t mask = capacity_ - 1;
  for (;;) {  // restarted when a claim CAS loses a race
    std::size_t idx = start_of(key);
    std::size_t first_tomb = capacity_;  // sentinel: none seen
    bool restart = false;
    for (std::size_t walked = 0; walked < capacity_;) {
      const Slot s = co_await t.get(slot_ptr(sh, idx));
      note_probe(t.rank());
      if (s.state == kBusy) {
        note_retry(t.rank());
        co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
        continue;
      }
      if (s.state == kFull && s.key == key) {
        // Assign in place under a claim: full -> busy -> (new value) -> full.
        const Claim c = co_await claim_full_slot(t, sh, idx, key);
        if (c != Claim::won) {
          note_retry(t.rank());
          co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
          if (c == Claim::lost) continue;  // re-read: a racer claimed first
          restart = true;  // slot now holds another key: rebuild the view
          break;
        }
        co_await t.put(value_ptr(sh, idx), value);
        co_await t.put(state_ptr(sh, idx), kFull);
        co_return true;
      }
      if (s.state == kTomb) {
        if (first_tomb == capacity_) first_tomb = idx;
        idx = (idx + 1) & mask;
        ++walked;
        continue;
      }
      if (s.state == kEmpty) {
        // The chain ends here, so the key is absent: claim the first
        // reusable slot (earliest tombstone, else this empty slot).
        const std::size_t target = first_tomb != capacity_ ? first_tomb : idx;
        const std::uint64_t expected =
            target == idx ? kEmpty : kTomb;
        const std::uint64_t old =
            co_await t.compare_swap(state_ptr(sh, target), expected, kBusy);
        if (old != expected) {
          // Someone re-shaped the chain under us; rebuild the view.
          note_retry(t.rank());
          co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
          restart = true;
          break;
        }
        co_await t.put(key_ptr(sh, target), key);
        co_await t.put(value_ptr(sh, target), value);
        co_await t.put(state_ptr(sh, target), kFull);
        (void)co_await t.fetch_add(live_ptr(sh), std::uint64_t{1});
        if (expected == kTomb) {
          (void)co_await t.fetch_add(tomb_ptr(sh),
                                     ~std::uint64_t{0});  // -1
        }
        rt_->counters().add(kInsert, t.rank());
        co_return true;
      }
      idx = (idx + 1) & mask;  // full, other key
      ++walked;
    }
    if (restart) continue;
    // Chain exhausted without an empty slot: reuse the earliest tombstone
    // (the full scan proved the key absent) or report the shard full.
    if (first_tomb == capacity_) co_return false;
    const std::uint64_t old =
        co_await t.compare_swap(state_ptr(sh, first_tomb), kTomb, kBusy);
    if (old != kTomb) {
      note_retry(t.rank());
      co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
      continue;
    }
    co_await t.put(key_ptr(sh, first_tomb), key);
    co_await t.put(value_ptr(sh, first_tomb), value);
    co_await t.put(state_ptr(sh, first_tomb), kFull);
    (void)co_await t.fetch_add(live_ptr(sh), std::uint64_t{1});
    (void)co_await t.fetch_add(tomb_ptr(sh), ~std::uint64_t{0});
    rt_->counters().add(kInsert, t.rank());
    co_return true;
  }
}

sim::Task<bool> KvStore::amo_erase(gas::Thread& t, int shard,
                                   std::uint64_t key) {
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const std::size_t mask = capacity_ - 1;
  for (;;) {  // restarted when a claimed slot turned out to hold another key
    std::size_t idx = start_of(key);
    std::size_t walked = 0;
    bool restart = false;
    while (walked < capacity_) {
      const Slot s = co_await t.get(slot_ptr(sh, idx));
      note_probe(t.rank());
      if (s.state == kBusy) {
        note_retry(t.rank());
        co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
        continue;
      }
      if (s.state == kEmpty) co_return false;
      if (s.state == kFull && s.key == key) {
        const Claim c = co_await claim_full_slot(t, sh, idx, key);
        if (c != Claim::won) {
          note_retry(t.rank());
          co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
          if (c == Claim::lost) continue;  // re-read: a racer claimed first
          restart = true;  // slot now holds another key: rebuild the view
          break;
        }
        co_await t.put(state_ptr(sh, idx), kTomb);
        (void)co_await t.fetch_add(live_ptr(sh), ~std::uint64_t{0});
        (void)co_await t.fetch_add(tomb_ptr(sh), std::uint64_t{1});
        rt_->counters().add(kTombstone, t.rank());
        co_return true;
      }
      idx = (idx + 1) & mask;
      ++walked;
    }
    if (restart) continue;
    co_return false;
  }
}

sim::Task<KvHit> KvStore::amo_update(gas::Thread& t, int shard,
                                     std::uint64_t key, std::uint64_t delta) {
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const std::size_t mask = capacity_ - 1;
  for (;;) {  // restarted when a claimed slot turned out to hold another key
    std::size_t idx = start_of(key);
    std::size_t walked = 0;
    bool restart = false;
    while (walked < capacity_) {
      const Slot s = co_await t.get(slot_ptr(sh, idx));
      note_probe(t.rank());
      if (s.state == kBusy) {
        note_retry(t.rank());
        co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
        continue;
      }
      if (s.state == kEmpty) co_return KvHit{};
      if (s.state == kFull && s.key == key) {
        const Claim c = co_await claim_full_slot(t, sh, idx, key);
        if (c != Claim::won) {
          note_retry(t.rank());
          co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
          if (c == Claim::lost) continue;  // re-read: a racer claimed first
          restart = true;  // slot now holds another key: rebuild the view
          break;
        }
        // The claim serializes writers, so the fetch_add below is the only
        // mutation in flight; its return value is the pre-claim value.
        const std::uint64_t before =
            co_await t.fetch_add(value_ptr(sh, idx), delta);
        co_await t.put(state_ptr(sh, idx), kFull);
        co_return KvHit{before + delta, 1};
      }
      idx = (idx + 1) & mask;
      ++walked;
    }
    if (restart) continue;
    co_return KvHit{};
  }
}

// --- owner-side execution (RPC path) ------------------------------------

sim::Task<KvHit> KvStore::rpc_op(gas::Thread& t, KvOp op, int shard,
                                 std::uint64_t key, std::uint64_t value) {
  const int owner = map_.owner_of(shard);
  if (owner == t.rank()) {
    // Caller owns the shard: run the handler inline, no wire.
    co_return co_await owner_op(t, op, shard, key, value);
  }
  KvStore* self = this;
  auto fut = rpc_->call(
      t, owner,
      [self](gas::Thread& at, int opi, int sh, std::uint64_t k,
             std::uint64_t v) {
        return self->owner_op(at, static_cast<KvOp>(opi), sh, k, v);
      },
      static_cast<int>(op), shard, key, value);
  co_return co_await fut;
}

sim::Task<KvHit> KvStore::owner_op(gas::Thread& at, KvOp op, int shard,
                                   std::uint64_t key, std::uint64_t value) {
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const std::size_t mask = capacity_ - 1;
  for (;;) {
    // One synchronous host walk: the engine is single-threaded, so probing
    // and mutating without a suspension point in between is atomic with
    // respect to every concurrent AMO claim. The walk's local cost is
    // charged right after (the modeled reply already includes it).
    std::size_t idx = start_of(key);
    std::size_t first_tomb = capacity_;
    std::uint64_t walked = 0;
    bool blocked = false;
    bool decided = false;
    KvHit out{};
    for (std::size_t i = 0; i < capacity_;
         ++i, idx = (idx + 1) & mask) {
      Slot& s = sh.slots.raw[idx];
      ++walked;
      if (s.state == kBusy) {
        blocked = true;  // an AMO claimant owns this slot: wait it out
        break;
      }
      if (s.state == kFull && s.key == key) {
        switch (op) {
          case KvOp::get:
            out = KvHit{s.value, 1};
            break;
          case KvOp::put:
            s.value = value;
            out = KvHit{value, 1};
            break;
          case KvOp::erase:
            s.state = kTomb;
            --sh.meta.raw[0];
            ++sh.meta.raw[1];
            rt_->counters().add(kTombstone, at.rank());
            out = KvHit{s.value, 1};
            break;
          case KvOp::update:
            s.value += value;
            out = KvHit{s.value, 1};
            break;
        }
        decided = true;
        break;
      }
      if (s.state == kTomb) {
        if (first_tomb == capacity_) first_tomb = idx;
        continue;
      }
      if (s.state == kEmpty) {
        if (op == KvOp::put) {
          const std::size_t target =
              first_tomb != capacity_ ? first_tomb : idx;
          Slot& tgt = sh.slots.raw[target];
          const bool reused = tgt.state == kTomb;
          tgt.key = key;
          tgt.value = value;
          tgt.state = kFull;
          ++sh.meta.raw[0];
          if (reused) --sh.meta.raw[1];
          rt_->counters().add(kInsert, at.rank());
          out = KvHit{value, 1};
        }
        decided = true;  // get/erase/update: clean miss
        break;
      }
      // full, other key: keep probing
    }
    note_probe(at.rank(), walked);
    if (blocked) {
      note_retry(at.rank());
      co_await sim::delay(rt_->engine(), sim::from_seconds(kBusyBackoffS));
      continue;
    }
    if (!decided && op == KvOp::put && first_tomb != capacity_) {
      // Chain exhausted: the full scan proved the key absent, reuse the
      // earliest tombstone.
      Slot& tgt = sh.slots.raw[first_tomb];
      tgt.key = key;
      tgt.value = value;
      tgt.state = kFull;
      ++sh.meta.raw[0];
      --sh.meta.raw[1];
      rt_->counters().add(kInsert, at.rank());
      out = KvHit{value, 1};
    }
    co_await at.compute(kOwnerBaseS +
                        static_cast<double>(walked) * kOwnerProbeS);
    co_return out;
  }
}

// --- host-side accessors -------------------------------------------------

std::uint64_t KvStore::shard_live(int shard) const {
  return shards_[static_cast<std::size_t>(shard)].meta.raw[0];
}

std::uint64_t KvStore::shard_live_recount(int shard) const {
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (sh.slots.raw[i].state == kFull) ++n;
  }
  return n;
}

std::uint64_t KvStore::live() const {
  std::uint64_t n = 0;
  for (int s = 0; s < map_.shards(); ++s) n += shard_live(s);
  return n;
}

std::uint64_t KvStore::max_shard_slots_used() const {
  std::uint64_t best = 0;
  for (const Shard& sh : shards_) {
    std::uint64_t used = 0;
    for (std::size_t i = 0; i < capacity_; ++i) {
      const std::uint64_t st = sh.slots.raw[i].state;
      if (st == kFull || st == kTomb) ++used;
    }
    if (used > best) best = used;
  }
  return best;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> KvStore::snapshot()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Shard& sh : shards_) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      const Slot& s = sh.slots.raw[i];
      if (s.state == kFull) out.emplace_back(s.key, s.value);
    }
  }
  return out;
}

}  // namespace hupc::kv
