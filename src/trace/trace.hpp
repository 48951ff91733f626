// Structured event tracing for the simulated runtime.
//
// A Tracer owns a fixed-capacity ring of TraceEvent records (virtual
// timestamp, rank, category, name, two integer args) plus a counter
// registry (trace::Counters). Instrumentation sites across the stack —
// engine dispatch, GAS accesses and barriers, network inject/deliver, steal
// attempts, sub-thread regions — are always compiled in and cost one null
// check when no tracer is attached: a Scope, or an `instant` call behind
// `if (tracer)`. Counting does not depend on a tracer: layers always count
// into their engine's registry, which is the attached tracer's when there is
// one. Recording never charges virtual time, so an attached tracer cannot
// perturb a simulation.
//
// Two exporters:
//   export_chrome  — chrome://tracing / Perfetto "Trace Event Format" JSON
//                    (pid = node, tid = rank; engine events get their own
//                    lane one past the last rank);
//   export_summary — compact machine-readable text: per-category event
//                    counts, per-rank per-category virtual-time totals, and
//                    every named counter.
//
// This layer sits below hupc::sim so every library can link it: timestamps
// are raw nanosecond counts (the same representation as sim::Time) supplied
// by a clock callback the owner installs, keeping the subsystem free of
// upward dependencies.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "trace/counters.hpp"

namespace hupc::trace {

/// Trace level every build has: event sites are always compiled in.
/// Recorded in run fingerprints so artifacts stay comparable.
inline constexpr int kTraceLevel = 1;

/// Virtual timestamp in nanoseconds; same representation as sim::Time.
using VTime = std::int64_t;

enum class Category : std::uint8_t { engine, gas, net, sched, core, user };
inline constexpr int kCategories = 6;

[[nodiscard]] const char* to_string(Category cat) noexcept;

/// Rank value for events that belong to the simulation as a whole (engine
/// dispatch) rather than to one SPMD rank.
inline constexpr int kEngineRank = -1;

struct TraceEvent {
  VTime ts = 0;
  std::int32_t rank = kEngineRank;
  Category cat = Category::user;
  char phase = 'i';   // 'B' begin, 'E' end, 'i' instant
  const char* name = "";  // must be a string literal (stored by pointer)
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;

  friend bool operator==(const TraceEvent& a, const TraceEvent& b);
};

/// Aggregated view of a trace (the machine-readable exporter's content).
struct Summary {
  /// Events recorded per category (instants and begins; ends not counted
  /// separately so a B/E pair is one logical event).
  std::array<std::uint64_t, kCategories> events{};
  /// rank_time[rank][category]: total virtual nanoseconds spent inside
  /// matched B/E pairs. Index 0 is the engine lane (rank -1); SPMD rank r
  /// is at index r + 1.
  std::vector<std::array<VTime, kCategories>> rank_time;
  /// Named counters, per rank (same +1 index shift as rank_time).
  std::map<std::string, std::vector<std::uint64_t>> counters;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;

  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;
  [[nodiscard]] std::uint64_t counter(const std::string& name, int rank) const;
};

class Tracer {
 public:
  /// `capacity` — ring size in events; once full, the oldest records are
  /// overwritten (counted in dropped()).
  explicit Tracer(std::size_t capacity = std::size_t{1} << 20);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Install the virtual-clock source (e.g. the owning engine's now()).
  /// Without a clock every event is stamped 0.
  void set_clock(std::function<VTime()> clock) { clock_ = std::move(clock); }

  /// Rank -> node mapping used by the exporters (pid = node of rank).
  void set_rank_nodes(std::vector<int> node_of_rank) {
    rank_nodes_ = std::move(node_of_rank);
  }
  [[nodiscard]] int ranks() const noexcept {
    return static_cast<int>(rank_nodes_.size());
  }
  [[nodiscard]] int node_of(int rank) const noexcept {
    return rank >= 0 && rank < ranks()
               ? rank_nodes_[static_cast<std::size_t>(rank)]
               : 0;
  }

  // --- recording --------------------------------------------------------
  void begin(Category cat, const char* name, int rank, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0);
  void end(Category cat, const char* name, int rank);
  void instant(Category cat, const char* name, int rank, std::uint64_t a0 = 0,
               std::uint64_t a1 = 0);
  /// The tracer's counter registry. An engine with this tracer attached
  /// counts into it, so its counts outlive the engine and runtime.
  [[nodiscard]] Counters& counters() noexcept { return counters_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  // --- inspection -------------------------------------------------------
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return recorded_ < capacity_ ? static_cast<std::size_t>(recorded_)
                                 : capacity_;
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name, int rank) const {
    return counters_.get(name, rank);
  }
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const {
    return counters_.total(name);
  }

  /// Retained events in chronological order (oldest surviving first).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Aggregate retained events + counters. Durations come from matched
  /// B/E pairs per (rank, category); an unmatched B is closed at the last
  /// retained timestamp.
  [[nodiscard]] Summary summary() const;

  /// Drop all recorded events and counters (the clock and topology stay).
  void clear();

  // --- exporters --------------------------------------------------------
  void export_chrome(std::ostream& os) const;
  void export_summary(std::ostream& os) const;

 private:
  void record(Category cat, char phase, const char* name, int rank,
              std::uint64_t a0, std::uint64_t a1);

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;
  std::function<VTime()> clock_;
  std::vector<int> rank_nodes_;
  Counters counters_;
};

/// RAII begin/end pair; safe across co_await suspension points (the end
/// timestamp is read when the enclosing scope — coroutine frame — exits).
class Scope {
 public:
  Scope(Tracer* tracer, Category cat, const char* name, int rank,
        std::uint64_t a0 = 0, std::uint64_t a1 = 0)
      : tracer_(tracer), cat_(cat), name_(name), rank_(rank) {
    if (tracer_ != nullptr) tracer_->begin(cat_, name_, rank_, a0, a1);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(cat_, name_, rank_);
  }

 private:
  Tracer* tracer_;
  Category cat_;
  const char* name_;
  int rank_;
};

}  // namespace hupc::trace
