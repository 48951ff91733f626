#include "kv/workload.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "async/future.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace hupc::kv {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: empty key universe");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: negative exponent");
  cdf_.resize(n);
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::uint64_t ZipfSampler::draw(double u01) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u01);
  const auto idx = static_cast<std::size_t>(it - cdf_.begin());
  return std::min(idx, cdf_.size() - 1);
}

namespace {

const trace::CounterId kLatencyOp = trace::intern("kv.latency.op");
const trace::CounterId kSloMiss = trace::intern("kv.latency.slo_miss");
const trace::CounterId kShardLive = trace::intern("gas.kv.shard.live");

/// One planned operation: intended arrival (seconds after measured-phase
/// start) plus everything needed to issue it.
struct PlannedOp {
  double at_s = 0;
  KvOp op = KvOp::get;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// Per-rank accumulator the in-flight op coroutines write into.
struct RankAgg {
  util::LogHistogram hist{1e-6, 4, 30};
  double sum_s = 0;
  double max_s = 0;
  double last_done_s = 0;
  std::uint64_t done = 0;
  std::uint64_t within_slo = 0;
};

/// Issue one operation, then record intended-arrival → completion latency.
sim::Task<void> serve_op(gas::Thread& t, gas::Runtime& rt, KvStore& store,
                         PlannedOp op, double due_s, double slo_s,
                         KvPath path, RankAgg& agg) {
  switch (op.op) {
    case KvOp::get:
      (void)co_await store.get(t, op.key, path);
      break;
    case KvOp::put:
      (void)co_await store.put(t, op.key, op.value, path);
      break;
    case KvOp::update:
      (void)co_await store.update(t, op.key, op.value, path);
      break;
    case KvOp::erase:
      (void)co_await store.erase(t, op.key, path);
      break;
  }
  const double done_s = sim::to_seconds(rt.engine().now());
  const double lat_s = std::max(0.0, done_s - due_s);
  agg.hist.add(lat_s);
  agg.sum_s += lat_s;
  agg.max_s = std::max(agg.max_s, lat_s);
  agg.last_done_s = std::max(agg.last_done_s, done_s);
  ++agg.done;
  rt.counters().add(kLatencyOp, t.rank());
  if (lat_s <= slo_s) {
    ++agg.within_slo;
  } else {
    rt.counters().add(kSloMiss, t.rank());
  }
}

void validate(const ServingParams& p) {
  if (p.keys == 0) throw std::invalid_argument("kv: keys must be > 0");
  if (p.ops_per_rank == 0) {
    throw std::invalid_argument("kv: ops-per-rank must be > 0");
  }
  if (p.read_fraction < 0.0 || p.read_fraction > 1.0) {
    throw std::invalid_argument("kv: rw-mix read fraction must be in [0,1]");
  }
  if (!(p.arrival_rate_hz > 0.0)) {
    throw std::invalid_argument("kv: arrival rate must be positive");
  }
  if (p.burst < 1.0) {
    throw std::invalid_argument("kv: burst factor must be >= 1");
  }
  if (p.burst_len == 0) {
    throw std::invalid_argument("kv: burst length must be > 0");
  }
  if (p.zipf_s < 0.0) {
    throw std::invalid_argument("kv: zipf exponent must be >= 0");
  }
  if (!(p.slo_s > 0.0)) {
    throw std::invalid_argument("kv: slo must be positive");
  }
}

}  // namespace

ServingResult run_serving(gas::Runtime& rt, KvStore& store,
                          const ServingParams& p) {
  validate(p);
  const int n = rt.threads();

  // Host-side plan: deterministic per (seed, rank), independent of the
  // interleaving the engine later produces.
  std::optional<ZipfSampler> zipf;
  if (p.dist == KeyDist::zipfian) zipf.emplace(p.keys, p.zipf_s);
  const double base_gap_s = 1.0 / p.arrival_rate_hz;
  const double hot_gap_s = base_gap_s / p.burst;
  const double cold_gap_s = base_gap_s * (2.0 - 1.0 / p.burst);

  std::vector<std::vector<PlannedOp>> plans(static_cast<std::size_t>(n));
  std::uint64_t planned_reads = 0;
  std::uint64_t planned_writes = 0;
  for (int r = 0; r < n; ++r) {
    util::Xoshiro256ss rng(
        mix64(p.seed ^ 0x5EBD1A11ULL) ^ static_cast<std::uint64_t>(r));
    auto& plan = plans[static_cast<std::size_t>(r)];
    plan.reserve(p.ops_per_rank);
    double at = 0;
    for (std::size_t i = 0; i < p.ops_per_rank; ++i) {
      const bool hot = (i / p.burst_len) % 2 == 0;
      const double mean_gap = hot ? hot_gap_s : cold_gap_s;
      at += -std::log(1.0 - rng.uniform()) * mean_gap;
      PlannedOp op;
      op.at_s = at;
      op.key = zipf ? zipf->draw(rng.uniform())
                    : rng.below(static_cast<std::uint64_t>(p.keys));
      const double u = rng.uniform();
      if (u < p.read_fraction) {
        op.op = KvOp::get;
        ++planned_reads;
      } else {
        op.op = rng.uniform() < 2.0 / 3.0 ? KvOp::put : KvOp::update;
        op.value = rng.next();
        ++planned_writes;
      }
      plan.push_back(op);
    }
  }

  std::vector<RankAgg> aggs(static_cast<std::size_t>(n));
  std::vector<double> t0s(static_cast<std::size_t>(n), 0.0);

  rt.spmd([&](gas::Thread& t) -> sim::Task<void> {
    const int r = t.rank();
    // Preload every key exactly once (rank-partitioned: the measured phase
    // then only ever re-assigns existing keys, sidestepping the
    // unarbitrated first-insert race the slot protocol documents).
    for (std::uint64_t k = static_cast<std::uint64_t>(r); k < p.keys;
         k += static_cast<std::uint64_t>(n)) {
      (void)co_await store.put(t, k, mix64(k));
    }
    co_await t.barrier();

    const double t0 = sim::to_seconds(rt.engine().now());
    t0s[static_cast<std::size_t>(r)] = t0;
    std::optional<gas::CachedEpoch> epoch;
    if (p.read_cache) epoch.emplace(t);

    RankAgg& agg = aggs[static_cast<std::size_t>(r)];
    std::vector<async::future<>> inflight;
    const auto& plan = plans[static_cast<std::size_t>(r)];
    inflight.reserve(plan.size());
    for (const PlannedOp& op : plan) {
      const double due = t0 + op.at_s;
      const double now = sim::to_seconds(rt.engine().now());
      if (due > now) {
        co_await sim::delay(rt.engine(), sim::from_seconds(due - now));
      }
      inflight.push_back(
          t.launch_async(serve_op(t, rt, store, op, due, p.slo_s, p.path,
                                  agg)));
    }
    co_await async::when_all(std::move(inflight));
    if (epoch) epoch->end();
    co_await t.barrier();
  });
  rt.run_to_completion();

  // Shard occupancy counters: one weighted count per shard at its owner,
  // recorded once the table is quiescent.
  for (int s = 0; s < store.shard_map().shards(); ++s) {
    rt.counters().add(kShardLive, store.shard_map().owner_of(s),
                      store.shard_live(s));
  }

  ServingResult res;
  res.reads = planned_reads;
  res.writes = planned_writes;
  double t0_min = t0s.empty() ? 0.0 : t0s.front();
  double last_done = 0;
  for (const double t0 : t0s) t0_min = std::min(t0_min, t0);
  for (const RankAgg& agg : aggs) {
    res.latency.merge(agg.hist);
    res.ops += agg.done;
    res.within_slo += agg.within_slo;
    res.mean_s += agg.sum_s;
    res.max_s = std::max(res.max_s, agg.max_s);
    last_done = std::max(last_done, agg.last_done_s);
  }
  if (res.ops > 0) res.mean_s /= static_cast<double>(res.ops);
  res.makespan_s = std::max(0.0, last_done - t0_min);
  res.p50_s = res.latency.percentile(0.50);
  res.p99_s = res.latency.percentile(0.99);
  res.p999_s = res.latency.percentile(0.999);
  if (res.makespan_s > 0) {
    res.throughput_ops_s = static_cast<double>(res.ops) / res.makespan_s;
    res.slo_goodput_ops_s =
        static_cast<double>(res.within_slo) / res.makespan_s;
  }
  return res;
}

}  // namespace hupc::kv
