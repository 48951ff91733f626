// Sharded in-GAS key-value store (DESIGN.md §16).
//
// A KvStore is an open-addressing hash table scattered over the global
// address space: every shard is a fixed-capacity array of fixed-size
// Slot{key, value, state} records homed at the shard's owner rank (the
// ShardMap deals shards round-robin over a team). Linear probing, lazy
// deletion through tombstones, and a three-state slot protocol:
//
//     empty ──cas──> busy ──publish──> full ──cas──> busy ──> tomb
//                     ^                                │
//                     └──────── cas (update) ──────────┘
//
// A writer CLAIMS a slot by compare_swap'ing its state word to `busy`,
// publishes key/value with plain puts, and RELEASES by storing the final
// state. Because the window between a probe read and the claim CAS is
// several round trips wide, a slot can be erased and its tombstone reused
// for a different key in that window with the state word back at `full`
// (ABA); every full-slot claim therefore re-reads the key under the claim
// and, on a mismatch, releases the slot untouched and re-probes. Readers
// re-read busy slots until the claimant publishes; the single-threaded
// event engine makes every interleaving reproducible. Mutating ONE key
// from two ranks concurrently is linearized by the claim CAS; concurrently
// INSERTING the same brand-new key from two ranks is the one race the
// protocol does not arbitrate (both may claim distinct empty slots) —
// callers partition first-insert responsibility, as kv::run_serving's
// preload and the fuzz workload's writer partitions do.
//
// Every operation executes over one of two paths — caller-side AMO claims
// or RPC-to-owner via async::RpcDomain — chosen per call by the KvSelector
// (see selector.hpp for the cost trade). Both paths maintain per-shard
// live/tombstone counters in GAS, count gas.kv.* trace counters, and are
// interchangeable mid-run: the fuzz workload mixes them per-op and the
// equivalence tests pin identical final states.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "async/rpc.hpp"
#include "gas/runtime.hpp"
#include "kv/selector.hpp"
#include "kv/shard_map.hpp"
#include "sim/sim.hpp"

namespace hupc::kv {

/// Wire-serializable operation result: `found == 0` means the key was not
/// present (get/update) or the shard chain was exhausted (put).
struct KvHit {
  std::uint64_t value = 0;
  std::uint8_t found = 0;
};

/// The store's operation accounting: a view over the gas.kv.* counters,
/// summed over every rank.
struct KvStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t erases = 0;
  std::uint64_t updates = 0;
  std::uint64_t amo_ops = 0;
  std::uint64_t rpc_ops = 0;
  std::uint64_t probes = 0;
  std::uint64_t retries = 0;
  std::uint64_t inserts = 0;
  std::uint64_t tombstones = 0;

  [[nodiscard]] std::uint64_t total_ops() const noexcept {
    return gets + puts + erases + updates;
  }
};

class KvStore {
 public:
  /// One table slot. Trivially copyable so the AMO path reads a whole slot
  /// in ONE fine-grained get (and a read-cache line covers whole slots).
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::uint64_t state = 0;
  };

  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kBusy = 1;
  static constexpr std::uint64_t kFull = 2;
  static constexpr std::uint64_t kTomb = 3;

  struct Params {
    /// Slots per shard; rounded up to a power of two.
    std::size_t capacity = 1024;
    KvSelector selector;
  };

  /// Allocates every shard's slot array and meta words in the heap at the
  /// shard owner's affinity. The RpcDomain must outlive the store (both
  /// must be constructed before spmd(), like the domain itself).
  KvStore(gas::Runtime& rt, async::RpcDomain& rpc, ShardMap map,
          Params params);
  KvStore(gas::Runtime& rt, async::RpcDomain& rpc, ShardMap map)
      : KvStore(rt, rpc, std::move(map), Params{}) {}

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // --- simulation-side operations (per-call path override; `automatic`
  //     defers to the selector) ---

  [[nodiscard]] sim::Task<KvHit> get(gas::Thread& t, std::uint64_t key,
                                     KvPath path = KvPath::automatic);
  /// Insert-or-assign; false only when the shard's probe chain is full.
  [[nodiscard]] sim::Task<bool> put(gas::Thread& t, std::uint64_t key,
                                    std::uint64_t value,
                                    KvPath path = KvPath::automatic);
  /// Tombstone the key; false when absent.
  [[nodiscard]] sim::Task<bool> erase(gas::Thread& t, std::uint64_t key,
                                      KvPath path = KvPath::automatic);
  /// Atomic read-modify-write: value += delta when present (the AMO path
  /// runs a fetch_add under the slot claim). Returns the NEW value.
  [[nodiscard]] sim::Task<KvHit> update(gas::Thread& t, std::uint64_t key,
                                        std::uint64_t delta,
                                        KvPath path = KvPath::automatic);

  // --- host-side accessors (between runs / after run_to_completion) ---

  [[nodiscard]] const ShardMap& shard_map() const noexcept { return map_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] KvStats stats() const;
  [[nodiscard]] const KvSelector& selector() const noexcept {
    return params_.selector;
  }

  /// Shard's live counter (maintained by fetch_add / handler increments).
  [[nodiscard]] std::uint64_t shard_live(int shard) const;
  /// Shard's live count RE-COUNTED by walking the slots — conservation
  /// checking compares this against shard_live().
  [[nodiscard]] std::uint64_t shard_live_recount(int shard) const;
  [[nodiscard]] std::uint64_t live() const;
  /// Occupied fraction of the fullest shard, in slots (live + tombstones).
  [[nodiscard]] std::uint64_t max_shard_slots_used() const;

  /// All live (key, value) pairs, unordered.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  snapshot() const;

 private:
  struct Shard {
    gas::GlobalPtr<Slot> slots;
    gas::GlobalPtr<std::uint64_t> meta;  // [0] live, [1] tombstones
  };

  [[nodiscard]] std::size_t start_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix64(key) >> 17) & (capacity_ - 1);
  }
  [[nodiscard]] gas::GlobalPtr<Slot> slot_ptr(const Shard& sh,
                                              std::size_t idx) const noexcept {
    return {sh.slots.owner, sh.slots.raw + idx};
  }
  [[nodiscard]] gas::GlobalPtr<std::uint64_t> state_ptr(
      const Shard& sh, std::size_t idx) const noexcept {
    return {sh.slots.owner, &(sh.slots.raw + idx)->state};
  }
  [[nodiscard]] gas::GlobalPtr<std::uint64_t> value_ptr(
      const Shard& sh, std::size_t idx) const noexcept {
    return {sh.slots.owner, &(sh.slots.raw + idx)->value};
  }
  [[nodiscard]] gas::GlobalPtr<std::uint64_t> key_ptr(
      const Shard& sh, std::size_t idx) const noexcept {
    return {sh.slots.owner, &(sh.slots.raw + idx)->key};
  }
  [[nodiscard]] gas::GlobalPtr<std::uint64_t> live_ptr(
      const Shard& sh) const noexcept {
    return {sh.meta.owner, sh.meta.raw};
  }
  [[nodiscard]] gas::GlobalPtr<std::uint64_t> tomb_ptr(
      const Shard& sh) const noexcept {
    return {sh.meta.owner, sh.meta.raw + 1};
  }

  /// Selector + locality → concrete path; counts the op and path. A
  /// non-automatic `call_override` (the per-call argument) wins over the
  /// store-wide selector without touching it.
  [[nodiscard]] KvPath resolve(KvOp op, gas::Thread& t, int shard,
                               KvPath call_override);

  // Caller-side AMO protocol.

  /// Outcome of a verified full-slot claim: `lost` the CAS to a racer,
  /// `won` it with the expected key still in place, or `moved` — the CAS
  /// succeeded but the slot was recycled to another key inside the claim
  /// window (erase + tombstone reuse), so the claimant released it and
  /// must re-probe from scratch.
  enum class Claim : std::uint8_t { won, lost, moved };
  [[nodiscard]] sim::Task<Claim> claim_full_slot(gas::Thread& t,
                                                 const Shard& sh,
                                                 std::size_t idx,
                                                 std::uint64_t key);
  [[nodiscard]] sim::Task<KvHit> amo_get(gas::Thread& t, int shard,
                                         std::uint64_t key);
  [[nodiscard]] sim::Task<bool> amo_put(gas::Thread& t, int shard,
                                        std::uint64_t key,
                                        std::uint64_t value);
  [[nodiscard]] sim::Task<bool> amo_erase(gas::Thread& t, int shard,
                                          std::uint64_t key);
  [[nodiscard]] sim::Task<KvHit> amo_update(gas::Thread& t, int shard,
                                            std::uint64_t key,
                                            std::uint64_t delta);

  // Owner-side execution: host probe + local-work charge, invoked through
  // the RPC personas (or inline when the caller IS the owner).
  [[nodiscard]] sim::Task<KvHit> owner_op(gas::Thread& at, KvOp op, int shard,
                                          std::uint64_t key,
                                          std::uint64_t value);
  [[nodiscard]] sim::Task<KvHit> rpc_op(gas::Thread& t, KvOp op, int shard,
                                        std::uint64_t key,
                                        std::uint64_t value);

  void note_probe(int rank, std::uint64_t n = 1);
  void note_retry(int rank);

  gas::Runtime* rt_;
  async::RpcDomain* rpc_;
  ShardMap map_;
  Params params_;
  std::size_t capacity_ = 0;  // power of two
  std::vector<Shard> shards_;
};

}  // namespace hupc::kv
