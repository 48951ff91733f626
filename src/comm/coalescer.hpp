// Per-destination message coalescing (Berkeley-UPC / GASNet-VIS-style
// software aggregation).
//
// A Coalescer belongs to one rank. Inside an explicit epoch (opened by
// gas::Thread::begin_coalesce), fine-grained remote puts, gets and AMOs
// are appended to bounded per-destination-node buffers instead of each
// paying a full small-message round trip. A buffer is flushed — applied
// to memory and charged as ONE aggregated net::Network::rma carrying the
// summed payload plus per-operation aggregation headers — when any of
// the following fires:
//
//   capacity  — the buffer reaches Params::max_bytes or Params::max_ops;
//   conflict  — a read-class access (get / AMO / bulk get) overlaps the
//               address range of a buffered put: the put must be observed
//               (read-your-writes), so the destination buffer drains first;
//   fence     — a barrier, a bulk copy to the same destination, an explicit
//               flush, or the epoch end.
//
// Memory semantics: puts are DEFERRED — the value bytes are captured at
// append time and written to the target at flush time, so a conflicting
// read really would observe stale data without the conflict flush (the
// property the tests pin). Gets and AMOs apply to memory immediately
// (their value is needed by the caller) and only their network cost is
// absorbed into the aggregate. Cross-rank visibility of buffered puts is
// epoch-relaxed: other ranks may not observe them until a flush — the
// same contract GASNet's access regions give Berkeley UPC.
//
// Determinism: buffers are keyed by destination node and flush-all walks
// them in ascending node order; within a buffer, puts apply in append
// order. Two runs with the same seed produce bit-identical schedules.
//
// Cost model: one flush charges one normal-API rma of
//   sum(payload bytes) + ops * kPerOpHeaderBytes
// — one shared-API traversal for the whole batch,
// which is precisely the amortization the thesis's §3.2/§4.3.1 analysis
// says fine-grained UPC lacks. Flushes pass through the normal network
// fault seam (blackouts / latency plans apply per aggregated message)
// and the normal counters, so byte conservation holds unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "net/network.hpp"
#include "sim/task.hpp"
#include "trace/trace.hpp"

namespace hupc::comm {

/// Modeled aggregation header per fine-grained operation (address +
/// opcode + length in the packed message).
inline constexpr double kPerOpHeaderBytes = 8.0;

/// Tuning knobs for one coalescing epoch.
struct Params {
  /// Per-destination payload threshold (bytes, headers included): the
  /// buffer flushes before growing past this.
  std::size_t max_bytes = 4096;
  /// Per-destination operation-count threshold.
  std::size_t max_ops = 512;
};

/// Lifetime statistics of one rank's coalescer: a view over its comm.*
/// counters (comm.op.*, comm.flush.*, comm.abandoned), accumulated across
/// epochs. Flushed bytes are the comm.flush.bytes counter.
struct Stats {
  std::uint64_t ops_absorbed = 0;    // fine-grained ops that skipped rma
  std::uint64_t puts_deferred = 0;   // subset of ops_absorbed with payload
  std::uint64_t flush_messages = 0;  // aggregated rma messages issued
  std::uint64_t flushes_capacity = 0;
  std::uint64_t flushes_conflict = 0;
  std::uint64_t flushes_fence = 0;  // epoch end / barrier / bulk / explicit
  std::uint64_t abandoned_ops = 0;  // applied uncharged (guard teardown)
};

/// Why a flush fired (accounting + trace annotation).
enum class FlushCause : std::uint8_t { capacity, conflict, fence };

class Coalescer {
 public:
  /// `rank` is the owning rank (trace attribution); `src_node`/`src_ep`
  /// identify its network endpoint for the aggregated messages.
  Coalescer(net::Network& net, int rank, int src_node, int src_ep,
            trace::Tracer* tracer)
      : net_(&net),
        rank_(rank),
        src_node_(src_node),
        src_ep_(src_ep),
        tracer_(tracer) {}

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  /// (Re)open an epoch with fresh parameters. Buffers must be empty
  /// (end/flush the previous epoch first).
  void configure(const Params& params);

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  /// This rank's Stats, read from the registry (the reference stays valid
  /// until the next call).
  [[nodiscard]] const Stats& stats() const;
  [[nodiscard]] bool empty() const noexcept { return buffered_ops_ == 0; }

  /// Append a deferred fine-grained put: `bytes` of `value` will be
  /// written to `dst` when the destination buffer flushes. May flush
  /// first (capacity). Only call for genuinely remote destinations.
  [[nodiscard]] sim::Task<void> put(int dst_node, void* dst,
                                    const void* value, std::size_t bytes);

  /// Pack a lowered VIS descriptor (gas::copy_strided / copy_irregular
  /// inside a coalescing epoch) into the destination's buffer: one
  /// deferred put per packed region, value bytes captured now, applied at
  /// flush — exactly put() semantics region by region, so capacity flushes
  /// interleave and the conflict machinery sees every region. Zero-length
  /// regions are skipped.
  [[nodiscard]] sim::Task<void> put_regions(int dst_node, void* dst_base,
                                            const void* src_base,
                                            const net::Region* regions,
                                            std::size_t count);

  /// Absorb a read-class access (get / AMO / metadata probe) of
  /// [addr, addr+bytes): flushes the destination buffer first when the
  /// range overlaps a buffered put (read-your-writes), then appends the
  /// access cost. `addr == nullptr` marks an addressless metadata probe
  /// (no conflict possible). The caller reads/updates memory directly
  /// afterwards.
  [[nodiscard]] sim::Task<void> read(int dst_node, const void* addr,
                                     std::size_t bytes);

  /// True when a buffered (deferred) put to `dst_node` overlaps
  /// [addr, addr+bytes) — the read-your-writes query the read cache asks
  /// before serving a line without routing the access through read().
  [[nodiscard]] bool has_conflicting_put(int dst_node, const void* addr,
                                         std::size_t bytes) const;

  /// Flush one destination's buffer (applies deferred puts, charges one
  /// aggregated rma). No-op when that buffer is empty.
  [[nodiscard]] sim::Task<void> flush(int dst_node,
                                      FlushCause cause = FlushCause::fence);

  /// Flush every destination in ascending node order (fence semantics).
  [[nodiscard]] sim::Task<void> flush_all(
      FlushCause cause = FlushCause::fence);

  /// Teardown path (RAII guard destruction, rank teardown): apply all
  /// deferred puts to memory WITHOUT charging network time, so host data
  /// stays verifiable even when an epoch is abandoned mid-flight. Counted
  /// in comm.abandoned; proper code awaits end_coalesce() instead.
  void abandon();

 private:
  struct PendingPut {
    void* dst;
    std::size_t offset;  // into Buffer::arena
    std::size_t len;
  };
  struct Buffer {
    std::vector<PendingPut> puts;
    std::vector<std::byte> arena;  // deferred put payloads, append order
    std::uint64_t ops = 0;         // all absorbed ops (puts + reads)
    double payload_bytes = 0.0;    // excluding per-op headers
  };

  /// True when [addr, addr+bytes) overlaps any buffered put in `buf`.
  [[nodiscard]] static bool conflicts(const Buffer& buf, const void* addr,
                                      std::size_t bytes);

  /// Charge for and account one aggregated message for `buf`, then reset
  /// it. Deferred puts are applied to memory at flush initiation (the
  /// issuing rank blocks until remote delivery anyway).
  [[nodiscard]] sim::Task<void> drain(int dst_node, Buffer& buf,
                                      FlushCause cause);

  /// Capacity check after appending an op of `payload` bytes.
  [[nodiscard]] bool over_capacity(const Buffer& buf) const noexcept;

  net::Network* net_;
  int rank_;
  int src_node_;
  int src_ep_;
  trace::Tracer* tracer_;
  Params params_{};
  mutable Stats view_{};  // last stats() result
  std::uint64_t buffered_ops_ = 0;
  // Ordered map: flush_all walks destinations in ascending node order,
  // which keeps multi-destination flush schedules deterministic.
  std::map<int, Buffer> buffers_;
};

}  // namespace hupc::comm
