#include "fault/invariants.hpp"

#include <cmath>
#include <map>

namespace hupc::fault {

void check_byte_conservation(gas::Runtime& rt, Violations& out) {
  auto& net = rt.network();
  double nic_bytes = 0.0;
  for (int n = 0; n < rt.config().machine.nodes; ++n) {
    nic_bytes += net.nic(n).total_bytes();
  }
  const double counted = 2.0 * net.total_bytes();  // src + dst wire legs
  const double tol = 1e-6 * (counted + 1.0);
  if (std::abs(nic_bytes - counted) > tol) {
    out.push_back("byte conservation: NIC traffic " +
                  std::to_string(nic_bytes) + " != 2x message bytes " +
                  std::to_string(counted));
  }
}

void check_virtual_time(const sim::Engine& engine, Violations& out) {
  if (engine.now() < 0) {
    out.push_back("virtual time: final time " + std::to_string(engine.now()) +
                  " < 0");
  }
  if (engine.events_executed() == 0) {
    out.push_back("virtual time: engine dispatched no events");
  }
  if (!engine.empty()) {
    out.push_back("virtual time: " + std::to_string(engine.pending()) +
                  " events still pending after run()");
  }
}

void check_network_counters(gas::Runtime& rt, Violations& out) {
  const trace::Counters& counters = rt.counters();
  const std::uint64_t msgs = counters.total("net.msg");
  const std::uint64_t delivered = counters.total("net.delivered");
  if (delivered != msgs) {
    out.push_back("network counters: net.delivered " +
                  std::to_string(delivered) + " != injected " +
                  std::to_string(msgs) + " (message lost in flight)");
  }
  // The bytes counter truncates each message's byte count to an integer, so
  // it may undercount by < 1 byte per message.
  const double counted_bytes =
      static_cast<double>(counters.total("net.bytes"));
  const double actual = rt.network().total_bytes();
  if (counted_bytes > actual || actual - counted_bytes >
                                    static_cast<double>(msgs) + 1.0) {
    out.push_back("network counters: net.bytes " +
                  std::to_string(counted_bytes) + " inconsistent with " +
                  std::to_string(actual));
  }
}

void check_cache_transparency(std::uint64_t cached_result,
                              std::uint64_t uncached_result,
                              const comm::CacheStats* stats, Violations& out) {
  if (cached_result != uncached_result) {
    out.push_back("cache transparency: cached result " +
                  std::to_string(cached_result) + " != uncached result " +
                  std::to_string(uncached_result));
  }
  if (stats == nullptr) return;
  if (stats->evictions > stats->misses) {
    out.push_back("cache accounting: evictions " +
                  std::to_string(stats->evictions) + " > misses " +
                  std::to_string(stats->misses) +
                  " (a line can only be displaced after a fill)");
  }
  if (stats->invalidations > 0 && stats->hits + stats->misses == 0) {
    out.push_back(
        "cache accounting: invalidations without any serviced access");
  }
}

void check_async_ordering(const std::vector<AsyncOpRecord>& ops,
                          const trace::Counters& counters, Violations& out) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const AsyncOpRecord& op = ops[i];
    if (op.completions != 1) {
      out.push_back("async ordering: op " + std::to_string(i) +
                    " completed " + std::to_string(op.completions) +
                    " time(s), expected exactly once");
      continue;
    }
    if (op.completed_at < op.issued_at) {
      out.push_back("async ordering: op " + std::to_string(i) +
                    " resolved at t=" + std::to_string(op.completed_at) +
                    " before its issue at t=" + std::to_string(op.issued_at));
    }
  }
  const std::uint64_t issued = counters.total("async.copy.issued");
  const std::uint64_t copies = counters.total("async.copy.completed");
  const std::uint64_t failed = counters.total("async.copy.failed");
  if (issued != copies + failed) {
    out.push_back("async conservation: async.copy.issued " +
                  std::to_string(issued) + " != completed " +
                  std::to_string(copies) + " + failed " +
                  std::to_string(failed));
  }
  const std::uint64_t sent = counters.total("async.rpc.sent");
  const std::uint64_t executed = counters.total("async.rpc.executed");
  const std::uint64_t completed = counters.total("async.rpc.completed");
  if (sent != executed || sent != completed) {
    out.push_back("async conservation: async.rpc sent " +
                  std::to_string(sent) + " / executed " +
                  std::to_string(executed) + " / completed " +
                  std::to_string(completed) + " diverge");
  }
}

void check_vis_conservation(gas::Runtime& rt, const VisExpectation& expected,
                            Violations& out) {
  auto& net = rt.network();
  const std::uint64_t msgs = net.total_vis_messages();
  if (msgs != expected.messages) {
    out.push_back("vis conservation: packed messages " + std::to_string(msgs) +
                  " != expected " + std::to_string(expected.messages));
  }
  if (net.total_vis_regions() != expected.regions) {
    out.push_back("vis conservation: packed regions " +
                  std::to_string(net.total_vis_regions()) + " != expected " +
                  std::to_string(expected.regions));
  }
  const double payload = net.total_vis_payload_bytes();
  const double tol = 1e-6 * (expected.payload_bytes + 1.0);
  if (std::abs(payload - expected.payload_bytes) > tol) {
    out.push_back("vis conservation: payload " + std::to_string(payload) +
                  " != sum of oracle region bytes " +
                  std::to_string(expected.payload_bytes));
  }
  if (net.total_vis_bytes() + tol < payload) {
    out.push_back("vis conservation: gross wire bytes " +
                  std::to_string(net.total_vis_bytes()) +
                  " < payload " + std::to_string(payload) +
                  " (negative header overhead)");
  }
}

void check_team_agreement(const std::vector<TeamOpRecord>& records,
                          std::uint64_t expected_coll_calls,
                          const trace::Counters& counters, Violations& out) {
  std::map<int, const TeamOpRecord*> first_of;
  std::uint64_t total_ops = 0;
  for (const TeamOpRecord& rec : records) {
    total_ops += rec.ops;
    const auto [it, fresh] = first_of.emplace(rec.team, &rec);
    if (fresh) continue;
    const TeamOpRecord& head = *it->second;
    if (rec.ops != head.ops) {
      out.push_back("team agreement: team " + std::to_string(rec.team) +
                    " member " + std::to_string(rec.member) + " completed " +
                    std::to_string(rec.ops) + " ops, member " +
                    std::to_string(head.member) + " completed " +
                    std::to_string(head.ops));
    }
    if (rec.checksum != head.checksum) {
      out.push_back("team agreement: team " + std::to_string(rec.team) +
                    " member " + std::to_string(rec.member) + " digest " +
                    std::to_string(rec.checksum) + " != member " +
                    std::to_string(head.member) + " digest " +
                    std::to_string(head.checksum));
    }
  }
  if (total_ops != expected_coll_calls) {
    out.push_back("team agreement: members report " +
                  std::to_string(total_ops) + " collective calls, workload " +
                  "performed " + std::to_string(expected_coll_calls));
  }
  static const char* const kCollCounters[] = {
      "gas.coll.broadcast", "gas.coll.reduce", "gas.coll.gather",
      "gas.coll.allgather", "gas.coll.alltoall"};
  std::uint64_t counted = 0;
  for (const char* name : kCollCounters) counted += counters.total(name);
  if (counted != expected_coll_calls) {
    out.push_back("counter cross-check: gas.coll.* total " +
                  std::to_string(counted) + " != member calls " +
                  std::to_string(expected_coll_calls) +
                  " (a collective call went uncounted or double-counted)");
  }
}

void check_barrier(gas::Runtime& rt, std::uint64_t expected_phases,
                   Violations& out) {
  const std::uint64_t phase = rt.global_barrier().phase();
  if (phase != expected_phases) {
    out.push_back("barrier: completed phases " + std::to_string(phase) +
                  " != expected " + std::to_string(expected_phases));
  }
  if (expected_phases > 0) {
    // Linearizability: every rank contributed to every phase exactly once.
    for (int r = 0; r < rt.threads(); ++r) {
      const std::uint64_t arrived = rt.counters().get("gas.barrier", r);
      if (arrived != expected_phases) {
        out.push_back("barrier: rank " + std::to_string(r) + " arrived " +
                      std::to_string(arrived) + " times, expected " +
                      std::to_string(expected_phases));
      }
    }
  }
}

void check_kv_conservation(
    const kv::KvStore& store,
    const std::unordered_map<std::uint64_t, std::uint64_t>& mirror,
    const KvExpectation& expected, Violations& out) {
  // Every acked put readable, nothing extra: the live snapshot IS the
  // mirror. Walk the snapshot against the mirror, then compare sizes to
  // catch lost keys and duplicated slots in one pass each.
  const auto snap = store.snapshot();
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  for (const auto& [key, value] : snap) {
    if (!seen.emplace(key, value).second) {
      out.push_back("kv conservation: key " + std::to_string(key) +
                    " occupies more than one live slot");
      continue;
    }
    const auto it = mirror.find(key);
    if (it == mirror.end()) {
      out.push_back("kv conservation: key " + std::to_string(key) +
                    " live in the store but absent from the mirror");
    } else if (it->second != value) {
      out.push_back("kv conservation: key " + std::to_string(key) +
                    " holds " + std::to_string(value) + ", mirror says " +
                    std::to_string(it->second));
    }
  }
  if (seen.size() != mirror.size()) {
    out.push_back("kv conservation: " + std::to_string(seen.size()) +
                  " distinct live keys != mirror size " +
                  std::to_string(mirror.size()));
  }

  // Shard value-count conservation: the fetch_add-maintained live counter
  // must match a recount of the slot states it claims to summarize.
  for (int s = 0; s < store.shard_map().shards(); ++s) {
    const std::uint64_t counted = store.shard_live(s);
    const std::uint64_t recounted = store.shard_live_recount(s);
    if (counted != recounted) {
      out.push_back("kv conservation: shard " + std::to_string(s) +
                    " live counter " + std::to_string(counted) +
                    " != slot recount " + std::to_string(recounted));
    }
  }

  // Op accounting against the oracle.
  const kv::KvStats st = store.stats();
  const auto expect_eq = [&out](const char* what, std::uint64_t got,
                                std::uint64_t want) {
    if (got != want) {
      out.push_back(std::string("kv conservation: ") + what + " " +
                    std::to_string(got) + " != expected " +
                    std::to_string(want));
    }
  };
  expect_eq("gets", st.gets, expected.gets);
  expect_eq("puts", st.puts, expected.puts);
  expect_eq("erases", st.erases, expected.erases);
  expect_eq("updates", st.updates, expected.updates);
  expect_eq("path attributions (amo + rpc)", st.amo_ops + st.rpc_ops,
            st.total_ops());
}

}  // namespace hupc::fault
