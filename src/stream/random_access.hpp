// RandomAccess (HPCC GUPS) — the second thread-group application class the
// thesis names (§4.4: "the thread group approach would fit better in these
// cases, such as UTS, Random Access, etc.").
//
// A power-of-two table of 64-bit words is block-distributed over UPC
// threads; each thread performs `updates` read-xor-write operations at
// pseudo-random global indices (the HPCC LCG sequence).
//
// Variants:
//   naive    — every update is a fine-grained remote AMO: latency-bound,
//              THREADS x updates round trips;
//   grouped  — the thread-group optimization: updates destined for the
//              local supernode apply through privatized pointers; remote
//              updates are bucketed per target node and shipped in bulk to
//              a proxy member that applies them locally;
//   coalesced — the same fine-grained program as naive, run inside a
//              comm::Coalescer epoch: the runtime aggregates per
//              destination node transparently, amortizing the per-message
//              API cost without restructuring the application loop.
//
// A read-dominated companion workload (run_gather) reads random bursts of
// CONSECUTIVE table elements instead of updating random single words —
// the access shape where fine-grained UPC gets lose hardest to per-access
// latency, and where the runtime's read cache (comm::ReadCache, epoch
// opened when GatherParams::cached is set) collapses each remote burst to
// one line fill per cache line instead of one round trip per element.
//
// Verification follows HPCC: applying the same update stream twice must
// restore the table to its initial contents (xor is an involution); the
// gather variant xor-folds every value read into an order-independent
// checksum that must be identical with the cache on and off.
#pragma once

#include <cstdint>

#include "comm/coalescer.hpp"
#include "comm/read_cache.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"

namespace hupc::stream {

enum class GupsVariant { naive, grouped, coalesced };

struct GupsResult {
  double seconds = 0;
  double gups = 0;  // giga-updates per second
  std::uint64_t updates = 0;
  std::uint64_t local = 0;   // applied through privatized pointers
  std::uint64_t remote = 0;  // fine-grained AMOs or bucketed shipments
};

/// The read-dominated gather workload: every rank reads `bursts` random
/// bursts of `burst_len` consecutive table elements.
struct GatherParams {
  std::uint64_t bursts = 32;
  std::uint64_t burst_len = 64;
  /// Serve remote gets through a read-cache epoch (comm::ReadCache).
  bool cached = false;
  comm::CacheParams cache{};
  std::uint64_t seed = 0x9A7E5ULL;
};

struct GatherResult {
  double seconds = 0;
  double mreads = 0;  // million reads per second
  std::uint64_t reads = 0;
  std::uint64_t remote = 0;    // reads of non-castable (off-supernode) data
  std::uint64_t checksum = 0;  // xor-fold of every value read; cache-invariant
};

class RandomAccess {
 public:
  /// `log2_table`: total table size is 2^log2_table words, distributed with
  /// equal blocks (THREADS must divide the table size).
  RandomAccess(gas::Runtime& rt, int log2_table);

  /// Run `updates_per_thread` updates on every rank; `passes` repetitions
  /// of the same stream (2 passes restore the table — verification).
  /// `coalesce` tunes the aggregation buffers of the coalesced variant and
  /// is ignored by the other two.
  [[nodiscard]] GupsResult run(GupsVariant variant,
                               std::uint64_t updates_per_thread,
                               int passes = 1,
                               const comm::Params& coalesce = {});

  /// Run the read-dominated gather workload (one use per Runtime, like
  /// run()). The checksum depends only on the table contents and the
  /// gather stream — never on GatherParams::cached, which changes the
  /// modeled cost schedule and nothing else.
  [[nodiscard]] GatherResult run_gather(const GatherParams& params = {});

  /// True when the table equals its initial contents (HPCC verification).
  [[nodiscard]] bool verify() const;

  [[nodiscard]] const gas::SharedArray<std::uint64_t>& table() const {
    return table_;
  }

  /// The HPCC RandomAccess pseudo-random sequence: x <- (x << 1) ^ (poly
  /// if the shifted-out bit was set), seeded per starting position.
  [[nodiscard]] static std::uint64_t hpcc_next(std::uint64_t x) {
    return (x << 1) ^ (static_cast<std::int64_t>(x) < 0 ? 0x7ULL : 0ULL);
  }

 private:
  gas::Runtime* rt_;
  int log2_table_;
  std::uint64_t mask_;
  gas::SharedArray<std::uint64_t> table_;
};

}  // namespace hupc::stream
