// Per-rank software read cache for fine-grained remote gets (the classic
// UPC-runtime answer to per-access shared-pointer latency; cf. the MuPC
// and Cray X1 UPC runtimes' reference caching).
//
// A ReadCache belongs to one rank. Inside an explicit epoch (opened by
// gas::Thread::begin_read_cache), fine-grained remote GETs are served
// through a set-associative, line-granularity tag store: a miss fetches
// one aligned line in a single round trip (charged as ONE aggregated
// net::Network::rma carrying the full line), and subsequent gets falling
// into that line cost only the local memory access. Spatially local read
// sweeps — gathers, reductions, probe loops — collapse from one network
// round trip per element to one per line.
//
// The cache holds NO data, only tags. Host memory is the single ground
// truth for values (the simulation really reads it), so a cached access
// can never return stale bytes — what the cache changes is purely the
// MODELED cost schedule. Coherence therefore only has to keep the cost
// model honest, and is epoch-scoped:
//
//   fences     — barriers / wait() invalidate everything (epoch-relaxed
//                visibility, same contract as the coalescer's puts);
//   locks      — GlobalLock::acquire invalidates everything (lock-protected
//                data must be re-fetched at lock cost);
//   AMOs       — read-modify-write accesses bypass the cache and invalidate
//                their own line (an AMO must see the remote value);
//   own writes — a put or bulk copy by this rank invalidates the covered
//                lines (read-your-writes: a later get re-fetches);
//   conflicts  — gas::Thread consults the coalescer's deferred-put buffer
//                before serving a cached line, flushing first on overlap.
//
// Determinism: lines are keyed by (owner rank, virtual segment offset) —
// never by raw host addresses, which vary run to run under ASLR and would
// leak nondeterminism into the modeled hit/miss schedule. Offsets come
// from gas::SharedHeap::offset_of (bump-allocation order, run-stable).
// Two runs with the same seed produce bit-identical schedules; with no
// epoch open every path is bit-identical to a build without the cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/hooks.hpp"
#include "net/network.hpp"
#include "sim/task.hpp"

namespace hupc::comm {

/// Set associativity of the tag store: every set holds this many lines.
inline constexpr std::size_t kCacheWays = 4;

/// Tuning knobs for one cached epoch.
struct CacheParams {
  /// Line size in bytes (power of two). One miss fetches this much.
  std::size_t line_bytes = 64;
  /// Total number of lines in the tag store (a multiple of kCacheWays).
  std::size_t lines = 256;
};

/// Throws std::invalid_argument unless `params` is a usable geometry: a
/// power-of-two line size and a positive multiple of kCacheWays lines.
void check_geometry(const CacheParams& params);

/// Lifetime statistics of one rank's cache: a view over its gas.cache.*
/// counters, accumulated across epochs.
struct CacheStats {
  std::uint64_t hits = 0;           // gets served at local cost
  std::uint64_t misses = 0;         // line fills
  std::uint64_t evictions = 0;      // valid lines displaced by fills
  std::uint64_t invalidations = 0;  // lines dropped by coherence events
};

class ReadCache {
 public:
  /// `rank` is the owning rank (counter attribution); `src_node`/`src_ep`
  /// identify its network endpoint for the line-fill messages.
  ReadCache(net::Network& net, int rank, int src_node, int src_ep)
      : net_(&net), rank_(rank), src_node_(src_node), src_ep_(src_ep) {}

  ReadCache(const ReadCache&) = delete;
  ReadCache& operator=(const ReadCache&) = delete;

  /// (Re)open an epoch with fresh parameters: validates them
  /// (check_geometry), drops every tag and rebuilds the store.
  void configure(const CacheParams& params);

  [[nodiscard]] const CacheParams& params() const noexcept { return params_; }
  /// This rank's CacheStats, read from the registry (the reference stays
  /// valid until the next call).
  [[nodiscard]] const CacheStats& stats() const;

  /// Attach a cache-pressure fault hook (non-owning, may be null): each
  /// hit consults it and demotes to a refill when it fires — a forced
  /// invalidation storm that stresses the coherence accounting without
  /// ever changing values (the cache holds no data).
  void set_fault(fault::CacheHook* hook) noexcept { fault_ = hook; }

  /// Serve a fine-grained get of [offset, offset+bytes) in `owner`'s
  /// segment (`offset` from gas::SharedHeap::offset_of; `dst_node` is the
  /// owner's home node). Touches every covered line: hits cost nothing
  /// here (the caller charges the local memory access); each miss charges
  /// one aggregated line-fill rma. Returns true when ALL covered lines
  /// hit (pure local service).
  [[nodiscard]] sim::Task<bool> read(int owner, int dst_node,
                                     std::int64_t offset, std::size_t bytes);

  /// One (segment offset, bytes) range of a strided/indexed GET footprint.
  struct Range {
    std::int64_t offset = 0;
    std::size_t bytes = 0;
  };

  /// Serve a whole VIS GET footprint at once: compute the distinct lines
  /// the ranges touch, serve hits for free, and fetch ALL missing lines
  /// with ONE packed rma (`regions` = lines fetched) — prefetching every
  /// line a stride touches instead of round-tripping per element or per
  /// line. Returns the number of lines filled (0 = pure local service).
  [[nodiscard]] sim::Task<std::size_t> prefetch(int owner, int dst_node,
                                                const Range* ranges,
                                                std::size_t count);

  /// Drop any lines overlapping [offset, offset+bytes) in `owner`'s
  /// segment (own-write / AMO coherence). Host-side, free.
  void invalidate_range(int owner, std::int64_t offset, std::size_t bytes);

  /// Drop everything (fence / lock coherence). Host-side, free.
  void invalidate_all();

 private:
  struct Line {
    bool valid = false;
    int owner = 0;
    std::uint64_t line_no = 0;  // offset / line_bytes
    std::uint64_t tick = 0;     // LRU stamp (monotone per touch)
  };

  [[nodiscard]] std::size_t set_index(int owner,
                                      std::uint64_t line_no) const noexcept;
  /// Look up (owner, line_no) in its set; returns the way index or -1.
  [[nodiscard]] int find(int owner, std::uint64_t line_no) const noexcept;
  /// Install (owner, line_no) over its set's LRU victim and account the
  /// miss — the tag-store half of a fill; the caller charges the rma.
  void install(int owner, std::uint64_t line_no);
  /// Fill (owner, line_no) into its set (LRU victim), charging one rma of
  /// `line_bytes` to `dst_node`; `access_bytes` sizes the aggregation
  /// accounting (how many same-size accesses the line amortizes).
  [[nodiscard]] sim::Task<void> fill(int owner, int dst_node,
                                     std::uint64_t line_no,
                                     std::size_t access_bytes);

  net::Network* net_;
  int rank_;
  int src_node_;
  int src_ep_;
  fault::CacheHook* fault_ = nullptr;
  CacheParams params_{};
  mutable CacheStats view_{};  // last stats() result
  std::uint64_t tick_ = 0;
  std::size_t sets_ = 0;
  // sets_ * kCacheWays lines, set-major: set s occupies
  // [s*kCacheWays, (s+1)*kCacheWays).
  std::vector<Line> lines_;
};

}  // namespace hupc::comm
