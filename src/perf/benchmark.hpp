// Benchmark registry + per-run reporting context.
//
// A benchmark is a named function `void(Context&)` registered at static
// initialization with PERF_BENCHMARK (or programmatically via
// Registry::add). The Runner calls it once per repetition; the body builds
// its workload (typically a fresh sim::Engine + gas::Runtime), runs it, and
// reports one sample per metric through Context::report. Modeled metrics
// (virtual-time throughput, byte counts) come out of the deterministic
// simulation and are bit-identical across repetitions and runs; measured
// metrics (wall-clock ns/op of the substrate itself) are noisy and are
// gated report-only by tools/bench_compare.py.
//
// Alongside metrics, a benchmark can attach selected trace counters
// (bytes on wire, aggregated messages, steals) so a perf regression and the
// behavioral change that caused it land in the same artifact.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/counters.hpp"

namespace hupc::perf {

/// Which way is better for a metric. Serialized into the artifact so the
/// compare tool knows what a regression looks like.
enum class Direction : std::uint8_t { higher_is_better, lower_is_better };

/// Where a metric's values come from:
///   modeled  — deterministic simulation output; bit-identical across runs,
///              hard-gated by the regression compare;
///   measured — host wall-clock; noisy, report-only in the gate.
enum class Kind : std::uint8_t { modeled, measured };

enum class Tier : std::uint8_t { smoke, full };

[[nodiscard]] const char* to_string(Direction d) noexcept;
[[nodiscard]] const char* to_string(Kind k) noexcept;
[[nodiscard]] const char* to_string(Tier t) noexcept;

/// Parse "smoke" / "full"; throws std::invalid_argument otherwise.
[[nodiscard]] Tier parse_tier(std::string_view s);

/// One metric's samples across the repetitions of a benchmark.
struct MetricSeries {
  std::string name;
  std::string unit;
  Direction direction = Direction::higher_is_better;
  Kind kind = Kind::modeled;
  std::vector<double> samples;
};

/// Everything one benchmark produced under the Runner.
struct Result {
  std::string id;
  int repetitions = 0;
  int warmup = 0;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<MetricSeries> metrics;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  [[nodiscard]] const MetricSeries* metric(std::string_view name) const;
  /// Median of the named metric's samples; throws std::out_of_range if the
  /// metric was never reported (formatter typo guard).
  [[nodiscard]] double median(std::string_view name) const;
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
};

/// Handed to the benchmark body once per repetition. Samples accumulate
/// across repetitions; config/counters are overwritten (last value wins, and
/// for a deterministic simulation every repetition agrees anyway).
class Context {
 public:
  [[nodiscard]] Tier tier() const noexcept { return tier_; }
  /// True in the smoke tier — bodies pick CI-sized workloads off this.
  [[nodiscard]] bool smoke() const noexcept { return tier_ == Tier::smoke; }
  /// Current repetition, 0-based; warmup repetitions are negative.
  [[nodiscard]] int repetition() const noexcept { return repetition_; }
  [[nodiscard]] bool warmup_rep() const noexcept { return repetition_ < 0; }

  /// Describe one knob of this benchmark's configuration (machine preset,
  /// conduit, thread count, ...). Key-deduplicated.
  void set_config(std::string key, std::string value);

  /// Report one sample of `name` for the current repetition. Ignored
  /// during warmup repetitions.
  void report(std::string name, double value, std::string unit,
              Direction direction = Direction::higher_is_better,
              Kind kind = Kind::modeled);

  /// Attach a behavioral counter (overwritten each repetition).
  void report_counter(std::string name, std::uint64_t value);

  /// Copy the named counters out of a run's registry (totals across ranks,
  /// e.g. `engine.counters()`); counting is on at every trace level.
  void report_trace_counters(const trace::Counters& counters,
                             std::initializer_list<const char*> names);

 private:
  friend class Runner;
  Context(std::string id, Tier tier) : tier_(tier) { result_.id = std::move(id); }

  Tier tier_;
  int repetition_ = 0;
  Result result_;
};

struct Benchmark {
  std::string id;
  std::function<void(Context&)> fn;
  /// Warmup override; -1 uses the Runner's --warmup.
  int warmup = -1;
  /// Whether the smoke tier includes this benchmark (full runs everything).
  bool in_smoke = true;
};

class Registry {
 public:
  /// The global registry PERF_BENCHMARK adds to.
  [[nodiscard]] static Registry& instance();

  /// Register; throws std::invalid_argument on a duplicate or empty id.
  void add(Benchmark b);

  [[nodiscard]] const std::vector<Benchmark>& benchmarks() const noexcept {
    return benchmarks_;
  }

  /// Benchmarks selected by `filter` (comma-separated substrings; empty
  /// matches everything) within `tier`, in registration order.
  [[nodiscard]] std::vector<const Benchmark*> match(std::string_view filter,
                                                    Tier tier) const;

 private:
  std::vector<Benchmark> benchmarks_;
};

/// Static-initialization helper behind PERF_BENCHMARK.
struct Registrar {
  explicit Registrar(Benchmark b) { Registry::instance().add(std::move(b)); }
};

}  // namespace hupc::perf

// Define-and-register a benchmark:
//
//   PERF_BENCHMARK("gups.coalesce.naive") { ... use ctx ... }
//   PERF_BENCHMARK("uts.scaling.gige.t128.baseline", .in_smoke = false) { ... }
//
// Optional designated initializers after the id set Benchmark fields
// (warmup / in_smoke).
#define HUPC_PERF_CONCAT_IMPL_(a, b) a##b
#define HUPC_PERF_CONCAT_(a, b) HUPC_PERF_CONCAT_IMPL_(a, b)
#define PERF_BENCHMARK(bench_id, ...)                                         \
  static void HUPC_PERF_CONCAT_(hupc_perf_fn_, __LINE__)(                     \
      ::hupc::perf::Context&);                                                \
  static const ::hupc::perf::Registrar HUPC_PERF_CONCAT_(hupc_perf_reg_,      \
                                                         __LINE__)(           \
      ::hupc::perf::Benchmark{                                                \
          .id = (bench_id),                                                   \
          .fn = &HUPC_PERF_CONCAT_(hupc_perf_fn_, __LINE__),                  \
          __VA_ARGS__});                                                      \
  static void HUPC_PERF_CONCAT_(hupc_perf_fn_,                                \
                                __LINE__)(::hupc::perf::Context& ctx)
