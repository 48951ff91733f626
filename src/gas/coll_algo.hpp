// Collective algorithm identities and the size/shape-keyed selector.
//
// Every gas::Collectives operation can run under more than one algorithm
// (the "group-aware algorithms" second act of the thesis's Chapter 3 teams:
// topology-shaped trees instead of the flat reference patterns). This
// header names the algorithms, says which operation supports which, and
// packages the selection policy — message size, team size, and whether the
// team spans nodes — so call sites can either pin an algorithm
// (`--coll-algo=flat`) or let the selector choose (`auto`).
//
// Selection policy (CollectiveSelector::choose):
//   alltoall   — hierarchical (node-local gather -> leader exchange ->
//                local scatter) when the team spans nodes and the per-pair
//                payload is small enough that per-message costs dominate;
//                flat staggered otherwise (a leader funnel loses once the
//                wire dominates — cf. mpl::Mpi's aggregation crossover).
//   broadcast / reduce — supernode-leader two-level trees whenever the
//                team spans nodes and has enough members to amortize the
//                leader hop; flat (binomial / gather+combine) otherwise.
//   allgather  — dissemination (log rounds, each member forwarding its
//                accumulated blocks) for small blocks; ring (n-1 rounds of
//                single-block nearest-neighbour forwarding, bandwidth
//                optimal) for large ones; flat direct puts as oracle.
//
// Every algorithm moves the same bytes to the same final slots: results
// are bit-identical to the flat reference for any payload, and for reduce
// whenever the combiner is exactly associative + commutative (integer sum,
// min/max, xor — floating-point folds may differ in rounding because the
// combine ORDER differs between trees).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace hupc::gas {

/// Operation kinds with per-(team, op) collective matching (DESIGN.md §14).
enum class CollOp : std::uint8_t {
  broadcast = 0,
  reduce = 1,
  gather = 2,
  allgather = 3,
  alltoall = 4,
};
inline constexpr int kCollOpKinds = 5;

enum class CollAlgo : std::uint8_t {
  automatic = 0,  // defer to the CollectiveSelector
  flat = 1,       // single-level reference algorithm (the oracle)
  hier = 2,       // supernode-leader two-level tree
  ring = 3,       // ring allgather (bandwidth-optimal)
  dissem = 4,     // dissemination allgather (latency-optimal)
};

[[nodiscard]] inline const char* coll_op_name(CollOp op) noexcept {
  switch (op) {
    case CollOp::broadcast: return "broadcast";
    case CollOp::reduce: return "reduce";
    case CollOp::gather: return "gather";
    case CollOp::allgather: return "allgather";
    case CollOp::alltoall: return "alltoall";
  }
  return "?";
}

[[nodiscard]] inline const char* coll_algo_name(CollAlgo a) noexcept {
  switch (a) {
    case CollAlgo::automatic: return "auto";
    case CollAlgo::flat: return "flat";
    case CollAlgo::hier: return "hier";
    case CollAlgo::ring: return "ring";
    case CollAlgo::dissem: return "dissem";
  }
  return "?";
}

/// Parse a `--coll-algo` value; nullopt on anything unknown (callers turn
/// that into their CLI error path — exit 2, like every other enum flag).
[[nodiscard]] inline std::optional<CollAlgo> parse_coll_algo(
    const std::string& s) noexcept {
  if (s == "auto") return CollAlgo::automatic;
  if (s == "flat") return CollAlgo::flat;
  if (s == "hier") return CollAlgo::hier;
  if (s == "ring") return CollAlgo::ring;
  if (s == "dissem") return CollAlgo::dissem;
  return std::nullopt;
}

/// Which (operation, algorithm) cells ship. The equivalence harness sweeps
/// exactly this table against the flat oracle.
[[nodiscard]] inline bool coll_algo_supported(CollOp op,
                                              CollAlgo a) noexcept {
  if (a == CollAlgo::flat) return true;
  switch (op) {
    case CollOp::broadcast:
    case CollOp::reduce:
      return a == CollAlgo::hier;
    case CollOp::allgather:
      return a == CollAlgo::ring || a == CollAlgo::dissem;
    case CollOp::alltoall:
      return a == CollAlgo::hier;
    case CollOp::gather:
      return false;  // flat only
  }
  return false;
}

/// Algorithm choice keyed on (operation, message size, team shape).
/// `override_algo` pins every operation to one algorithm (the
/// `--coll-algo=` escape hatch); operations that do not support the pinned
/// algorithm fall back to flat rather than failing mid-kernel.
struct CollectiveSelector {
  CollAlgo override_algo = CollAlgo::automatic;

  [[nodiscard]] CollAlgo choose(CollOp op, std::size_t bytes, int members,
                                bool spans_nodes) const noexcept {
    // Two-level trees need enough members to amortize the extra leader hop.
    constexpr int kHierMinMembers = 4;
    // alltoall: aggregate through node leaders only while the per-pair
    // payload is injection/latency dominated (cf. mpl::Mpi's ~1 KiB
    // crossover; the gas-level path keeps a wider window because the flat
    // exchange serializes its puts per rank).
    constexpr std::size_t kHierAlltoallMaxBytes = std::size_t{64} * 1024;
    // allgather: dissemination below this per-member block size, ring above.
    constexpr std::size_t kDissemAllgatherMaxBytes = 4096;
    if (override_algo != CollAlgo::automatic) {
      return coll_algo_supported(op, override_algo) ? override_algo
                                                    : CollAlgo::flat;
    }
    switch (op) {
      case CollOp::alltoall:
        return spans_nodes && members >= kHierMinMembers &&
                       bytes <= kHierAlltoallMaxBytes
                   ? CollAlgo::hier
                   : CollAlgo::flat;
      case CollOp::broadcast:
      case CollOp::reduce:
        return spans_nodes && members >= kHierMinMembers ? CollAlgo::hier
                                                         : CollAlgo::flat;
      case CollOp::allgather:
        if (members < 3) return CollAlgo::flat;
        return bytes <= kDissemAllgatherMaxBytes ? CollAlgo::dissem
                                                   : CollAlgo::ring;
      case CollOp::gather:
        return CollAlgo::flat;
    }
    return CollAlgo::flat;
  }
};

}  // namespace hupc::gas
