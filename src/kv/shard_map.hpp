// Team-aware shard map: which rank owns which shard, and which shard owns
// which key.
//
// The key→shard mapping is a pure function of the key and the shard count
// (a splitmix64 finalizer scatters the key, the low bits pick the shard),
// so it is DETERMINISTIC ACROSS RANK COUNTS: re-deploying the same store
// over 8 or 256 ranks moves shards between owners but never moves a key
// between shards. Shards are dealt round-robin over the owning team's
// members in team-rank order, so ownership is also a pure function of
// (shard count, member list) — the property the rank-count determinism
// test pins.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/team.hpp"
#include "gas/runtime.hpp"

namespace hupc::kv {

/// Finalizer of splitmix64: a full-avalanche 64-bit mix, the same scatter
/// quality the RNG relies on, with zero state.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class ShardMap {
 public:
  /// `owners` lists the global ranks that hold shards, in team-rank order;
  /// `shards` must be a power of two (0 picks the smallest power of two
  /// >= 2x the owner count, so every rank owns at least one shard and
  /// round-robin stays balanced).
  explicit ShardMap(std::vector<int> owners, int shards = 0)
      : owners_(std::move(owners)) {
    if (owners_.empty()) {
      throw std::invalid_argument("kv::ShardMap: empty owner list");
    }
    if (shards == 0) {
      shards = 1;
      while (shards < 2 * static_cast<int>(owners_.size())) shards *= 2;
    }
    if (shards <= 0 || (shards & (shards - 1)) != 0) {
      throw std::invalid_argument(
          "kv::ShardMap: shard count must be a power of two");
    }
    shards_ = shards;
  }

  /// The whole runtime owns shards (rank order 0..threads-1).
  [[nodiscard]] static ShardMap over(const gas::Runtime& rt, int shards = 0) {
    std::vector<int> owners(static_cast<std::size_t>(rt.threads()));
    for (int r = 0; r < rt.threads(); ++r) {
      owners[static_cast<std::size_t>(r)] = r;
    }
    return ShardMap(std::move(owners), shards);
  }

  /// A team owns the shards: members in team-rank order, so splitting the
  /// same parent differently re-deals ownership deterministically.
  [[nodiscard]] static ShardMap over(const core::Team& team, int shards = 0) {
    return ShardMap(team.members(), shards);
  }

  [[nodiscard]] int shards() const noexcept { return shards_; }
  [[nodiscard]] const std::vector<int>& owners() const noexcept {
    return owners_;
  }

  /// Key → shard: rank-count independent.
  [[nodiscard]] int shard_of(std::uint64_t key) const noexcept {
    return static_cast<int>(mix64(key) &
                            static_cast<std::uint64_t>(shards_ - 1));
  }

  /// Shard → owning global rank (round-robin deal over the members).
  [[nodiscard]] int owner_of(int shard) const noexcept {
    return owners_[static_cast<std::size_t>(shard) % owners_.size()];
  }

 private:
  std::vector<int> owners_;
  int shards_ = 0;
};

}  // namespace hupc::kv
