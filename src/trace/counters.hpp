// The counter registry: every named event count in the simulator.
//
// Names are interned once into process-wide dense ids (trace::intern), so a
// count is an array increment, never a string lookup. A Counters registry
// holds, per id, a dense array of per-rank cells that grows on demand; lane
// 0 is the engine lane (rank -1) and SPMD rank r sits at lane r + 1.
//
// The registry is always on, with or without a tracer. Each sim::Engine owns
// one registry per simulation and every layer counts into it with one add()
// per event; the subsystems' stats structs (RankStats, comm::Stats,
// CacheStats, KvStats, RpcDomain::Stats) are views computed from it. A Tracer
// carries its own registry, and attaching it to an engine redirects the
// engine's counting there, so the counts outlive the runtime and feed the
// trace exporters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hupc::trace {

/// Dense, process-wide id of an interned counter name: the same name maps
/// to the same id in every registry.
using CounterId = std::uint32_t;

/// Intern `name` (idempotent). Call sites intern once, at namespace scope.
[[nodiscard]] CounterId intern(std::string_view name);

/// The name an id was interned from.
[[nodiscard]] const std::string& name_of(CounterId id);

class Counters {
 public:
  /// Add `delta` to `rank`'s cell of counter `id` (kEngineRank, -1, is the
  /// engine lane). A zero delta still marks the counter as touched.
  void add(CounterId id, int rank, std::uint64_t delta = 1) {
    if (id >= cells_.size()) cells_.resize(id + 1);
    auto& lanes = cells_[id];
    const auto lane = static_cast<std::size_t>(rank < -1 ? 0 : rank + 1);
    if (lanes.size() <= lane) lanes.resize(lane + 1, 0);
    lanes[lane] += delta;
  }

  [[nodiscard]] std::uint64_t get(CounterId id, int rank) const noexcept {
    const auto lane = static_cast<std::size_t>(rank + 1);
    if (id >= cells_.size() || lane >= cells_[id].size()) return 0;
    return cells_[id][lane];
  }
  /// Sum over every lane, the engine lane included.
  [[nodiscard]] std::uint64_t total(CounterId id) const noexcept;

  /// By-name lookups for reports and tests (a name never interned reads 0).
  [[nodiscard]] std::uint64_t get(std::string_view name, int rank) const;
  [[nodiscard]] std::uint64_t total(std::string_view name) const;

  /// Every counter this registry touched, keyed (sorted) by name, with its
  /// lanes (same +1 index shift as the cells).
  [[nodiscard]] std::map<std::string, std::vector<std::uint64_t>> snapshot()
      const;

  void clear() noexcept { cells_.clear(); }

 private:
  std::vector<std::vector<std::uint64_t>> cells_;  // [id][lane]
};

}  // namespace hupc::trace
