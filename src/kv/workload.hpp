// Open-loop serving workload for the kv store (DESIGN.md §16).
//
// The generator is OPEN-LOOP: every operation has an intended arrival time
// drawn from a Poisson process (optionally phased into bursts), and latency
// is measured from the INTENDED arrival to completion — so a store that
// falls behind accumulates queueing delay in its tail instead of quietly
// throttling the load, the property that makes p99/p99.9 mean something.
// Key draws are Zipfian (precomputed CDF, binary-searched) or uniform; the
// read/write mix splits the write side between put and update.
// Each rank draws its requests from its own (seed, rank) stream as it issues
// them, so the draws never depend on the interleaving and no plan is built.
// The measured phase runs get/put/update only: concurrent first-inserts of
// one brand-new key are the single race the slot protocol leaves to callers
// (store.hpp), so every key is preloaded by exactly one rank first, and
// erase is exercised by the fuzz workload and unit tests, which partition
// key ownership.
//
// Arrival waits ride sim::delay, so a fault plan's event_jitter seam (the
// kv-storm template) perturbs the arrival process itself — bursty *and*
// jittered arrivals come from the same knob that jitters everything else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kv/store.hpp"
#include "util/histogram.hpp"

namespace hupc::kv {

enum class KeyDist : std::uint8_t {
  zipfian = 0,
  uniform = 1,
};

[[nodiscard]] inline const char* key_dist_name(KeyDist d) noexcept {
  switch (d) {
    case KeyDist::zipfian: return "zipfian";
    case KeyDist::uniform: return "uniform";
  }
  return "?";
}

/// Parse a `--dist` value; nullopt on anything unknown.
[[nodiscard]] inline std::optional<KeyDist> parse_key_dist(
    const std::string& s) noexcept {
  if (s == "zipfian") return KeyDist::zipfian;
  if (s == "uniform") return KeyDist::uniform;
  return std::nullopt;
}

/// Zipfian rank sampler over {0..n-1} with exponent `s`: precomputes the
/// CDF once (O(n)), then inverts uniform draws by binary search. s == 0
/// degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Map a uniform u in [0,1) to a rank; rank 0 is the hottest key.
  [[nodiscard]] std::uint64_t draw(double u01) const;

 private:
  std::vector<double> cdf_;
};

struct ServingParams {
  /// Key universe; every key is preloaded before the measured phase.
  std::size_t keys = 4096;
  std::size_t ops_per_rank = 128;
  KeyDist dist = KeyDist::zipfian;
  double zipf_s = 0.99;
  /// Fraction of measured ops that are gets; the rest split 2:1 put:update.
  double read_fraction = 0.95;
  /// Path every measured op requests (automatic = per-call selector).
  KvPath path = KvPath::automatic;
  /// Per-rank offered load (open-loop Poisson arrivals).
  double arrival_rate_hz = 1.0e6;
  /// Peak-to-mean arrival ratio: phases of `burst_len` ops alternate
  /// between `burst` x and the balancing fraction of the mean rate. 1.0
  /// keeps arrivals homogeneous.
  double burst = 1.0;
  std::size_t burst_len = 16;
  /// Latency SLO for goodput accounting.
  double slo_s = 50e-6;
  /// Serve the measured phase inside a read-cache epoch.
  bool read_cache = true;
  std::uint64_t seed = 1;
};

struct ServingResult {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t within_slo = 0;
  /// Virtual time from measured-phase start to last completion.
  double makespan_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  double p999_s = 0;
  double mean_s = 0;
  double max_s = 0;
  double throughput_ops_s = 0;
  /// Completions that met the SLO, per second of makespan.
  double slo_goodput_ops_s = 0;
  /// Merged latency distribution (seconds; 1 µs unit, 16 sub-buckets).
  util::LogHistogram latency{1e-6, 4, 30};
};

/// Run the full serving experiment on an already-built store: rank-
/// partitioned preload of every key, barrier, then the open-loop measured
/// phase (each rank draws its ops as it issues them, launch_async per op,
/// counted by one async::join sealed after the last op), so host memory
/// follows the ops in flight, not the ops per rank. Drives rt.spmd +
/// run_to_completion itself; the caller installs any fault plan and tracer
/// beforehand. Throws std::invalid_argument on out-of-range params.
[[nodiscard]] ServingResult run_serving(gas::Runtime& rt, KvStore& store,
                                        const ServingParams& params);

}  // namespace hupc::kv
