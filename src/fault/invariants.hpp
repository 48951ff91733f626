// Reusable invariant checkers registered with a fault-plan run.
//
// Every checker appends human-readable violation strings to a Violations
// list; an empty list is a pass. Checkers assert properties that must
// survive ANY legal perturbation a FaultPlan can inject — faults change
// timing and schedules, never payloads or counts:
//
//   byte conservation      — every rma puts its payload on exactly two NIC
//                            fluid links (src + dst legs), so NIC traffic
//                            must equal 2x the per-message byte counters;
//   steal conservation     — the work-stealing engine neither loses nor
//                            duplicates items: processed == expected,
//                            outstanding == 0, all stacks drained;
//   barrier linearizability— every rank observed the same number of
//                            completed phases;
//   monotone virtual time  — the run ended at a non-negative time with a
//                            sane dispatch count;
//   counter cross-checks   — related but distinct counters of the run's
//                            registry agree (net.msg == net.delivered,
//                            copies issued == completed + failed, ...);
//   cache transparency     — the read cache shifts the modeled cost
//                            schedule only: cached and uncached runs of
//                            the same workload compute identical results,
//                            and the cache's own accounting is coherent;
//   team agreement         — every member of a collective team completed
//                            the same number of operations and derived the
//                            same digest, whatever algorithm ran them;
//   kv conservation        — every acknowledged put is readable (store
//                            snapshot == host mirror), shard live counters
//                            match slot recounts, and op/path accounting
//                            balances.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/read_cache.hpp"
#include "gas/runtime.hpp"
#include "kv/store.hpp"
#include "sched/work_stealing.hpp"
#include "sim/engine.hpp"
#include "trace/counters.hpp"

namespace hupc::fault {

using Violations = std::vector<std::string>;

/// NIC fluid-link traffic == 2x counted message bytes (src + dst wire legs).
void check_byte_conservation(gas::Runtime& rt, Violations& out);

/// Final virtual time >= 0 and the engine actually dispatched events.
void check_virtual_time(const sim::Engine& engine, Violations& out);

/// Every injected message was delivered (net.msg == net.delivered), and
/// the truncated net.bytes counter is consistent with the exact
/// total_bytes().
void check_network_counters(gas::Runtime& rt, Violations& out);

/// Every rank completed exactly `expected_phases` barrier phases, arriving
/// at each exactly once (per-rank gas.barrier counts).
void check_barrier(gas::Runtime& rt, std::uint64_t expected_phases,
                   Violations& out);

/// Read-cache transparency: `cached_result` and `uncached_result` are the
/// same workload's modeled outputs (e.g. a gather checksum) with the cache
/// on and off — they must be bit-identical, because the cache holds tags,
/// not data. `stats` (may be null) is the CACHED run's accounting summed
/// over every rank's Thread::read_cache_stats(): hits+misses must cover
/// the serviced accesses and evictions can never exceed misses.
void check_cache_transparency(std::uint64_t cached_result,
                              std::uint64_t uncached_result,
                              const comm::CacheStats* stats, Violations& out);

/// One tracked asynchronous operation (launched copy / RPC) from an async
/// workload run: when it was issued, when its future resolved, and how many
/// times the completion continuation fired.
struct AsyncOpRecord {
  std::int64_t issued_at = 0;      // engine time at issue
  std::int64_t completed_at = -1;  // engine time at resolution; -1 = never
  int completions = 0;             // continuation firings (must be exactly 1)
};

/// Async completion ordering: every tracked op's future resolved exactly
/// once and never before the op was issued — a fault plan may HOLD a
/// completion (delay when it is observed), never lose, duplicate, or
/// time-travel one. The run's async.* counters must also conserve:
/// async.copy.issued == async.copy.completed + async.copy.failed and
/// async.rpc.sent == async.rpc.executed == async.rpc.completed.
void check_async_ordering(const std::vector<AsyncOpRecord>& ops,
                          const trace::Counters& counters, Violations& out);

/// The host-side oracle's count of the packed VIS traffic a workload must
/// have injected: how many packed messages (Transfer::regions > 1) crossed
/// node boundaries, how many regions they carried in total, and the summed
/// payload bytes of those regions (headers excluded). Faults may delay or
/// throttle packed messages, never split, merge, lose, or inflate them.
struct VisExpectation {
  std::uint64_t messages = 0;
  std::uint64_t regions = 0;
  double payload_bytes = 0.0;
};

/// VIS footprint conservation: the network's packed-message accounting must
/// match the oracle exactly — message and region counts are integers, and
/// the payload must equal the sum of the oracle's region bytes (the ISSUE's
/// "sum of region bytes equals transferred bytes"). Gross wire bytes can
/// only exceed the payload (per-region headers are never negative).
void check_vis_conservation(gas::Runtime& rt, const VisExpectation& expected,
                            Violations& out);

/// One team member's view of a finished team-collective workload: how many
/// collective operations it completed on that team and the team digest it
/// derived from the values the collectives delivered to it. The digest is
/// produced by a closing allgather of every member's running checksum, so
/// a correct run leaves every member of a team holding the same digest.
struct TeamOpRecord {
  int team = 0;                // team id within the workload
  int member = 0;              // member index within that team
  std::uint64_t ops = 0;       // collective calls this member completed
  std::uint64_t checksum = 0;  // team digest this member derived
};

/// Team collective agreement: within each team, every member completed the
/// same number of collective operations and derived the same digest —
/// fault timing, algorithm choice, and team overlap may reshape the
/// schedule but never WHAT a collective delivers. The run's summed
/// gas.coll.* call counters must equal `expected_coll_calls` (the
/// per-member call total the workload performed).
void check_team_agreement(const std::vector<TeamOpRecord>& records,
                          std::uint64_t expected_coll_calls,
                          const trace::Counters& counters, Violations& out);

/// The kv fuzz workload's host-side oracle: the acknowledged operation
/// counts the kernels performed (by op kind, summed over every rank).
struct KvExpectation {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t erases = 0;
  std::uint64_t updates = 0;
};

/// KV store conservation against a host mirror: every acknowledged put is
/// readable (the store's live snapshot equals `mirror` exactly — no lost,
/// extra, or duplicated keys), every shard's fetch_add-maintained live
/// counter matches a slot-walk recount (value-count conservation), the
/// store's op accounting matches the oracle's counts, and every operation
/// is attributed to exactly one path (amo + rpc == total ops). Faults may
/// stretch claim windows and delay replies, never lose or duplicate an
/// acknowledged mutation.
void check_kv_conservation(
    const kv::KvStore& store,
    const std::unordered_map<std::uint64_t, std::uint64_t>& mirror,
    const KvExpectation& expected, Violations& out);

/// Work conservation for a finished WorkStealing run: processed ==
/// `expected_total`, outstanding == 0, every stack fully drained.
template <class T>
void check_steal_conservation(sched::WorkStealing<T>& ws, int threads,
                              std::uint64_t expected_total, Violations& out) {
  const std::uint64_t processed = ws.total_processed();
  if (processed != expected_total) {
    out.push_back("steal conservation: processed " + std::to_string(processed) +
                  " != expected " + std::to_string(expected_total));
  }
  if (ws.outstanding() != 0) {
    out.push_back("steal conservation: outstanding " +
                  std::to_string(ws.outstanding()) + " != 0 after completion");
  }
  for (int r = 0; r < threads; ++r) {
    auto& stack = ws.stack(r);
    if (stack.local_count() != 0 || stack.shared_count() != 0) {
      out.push_back("steal conservation: rank " + std::to_string(r) +
                    " stack not drained (local " +
                    std::to_string(stack.local_count()) + ", shared " +
                    std::to_string(stack.shared_count()) + ")");
    }
  }
}

}  // namespace hupc::fault
