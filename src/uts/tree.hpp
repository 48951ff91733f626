// The UTS binomial tree (Prins/Huan/Pugh; thesis §3.3.2).
//
// A tree node is its 20-byte SHA-1 state plus depth. Child count is a pure
// function of the node's state: the root spawns b0 children; every other
// node spawns m children with probability q, else 0 (m*q < 1 keeps the
// tree finite; sizes are heavy-tailed, the source of the load imbalance).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "uts/sha1.hpp"

namespace hupc::uts {

struct Node {
  Digest state;
  std::uint32_t depth = 0;
};

struct TreeParams {
  std::uint32_t root_seed = 42;
  // Binomial parameters (UTS T3-class workload: ~4.1 M nodes in the thesis).
  int b0 = 2000;
  int m = 8;
  double q = 0.124875;
};

/// The thesis workload: the binomial tree "with total 4.1 million nodes"
/// (§3.3.2.2). With our state derivation, root seed 28 yields 4,576,257
/// nodes (max depth 1160) — the closest 4-million-class tree in the first
/// 60 seeds; benches report the actual count alongside.
[[nodiscard]] inline TreeParams paper_tree() {
  TreeParams p;
  p.root_seed = 28;
  return p;
}

/// Root node for a given seed (SHA-1 of the 4-byte big-endian seed).
[[nodiscard]] Node root_node(const TreeParams& params);

/// Number of children of `node` under `params`.
[[nodiscard]] int num_children(const TreeParams& params, const Node& node);

/// The i-th child.
[[nodiscard]] Node child_of(const Node& parent, std::uint32_t i);

/// Expand in place: appends all children of `node` to `out`.
void expand(const TreeParams& params, const Node& node, std::vector<Node>& out);

struct TreeStats {
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  std::uint32_t max_depth = 0;
};

/// Sequential depth-first enumeration (the verification oracle).
[[nodiscard]] TreeStats enumerate(const TreeParams& params);

/// Enumerate while invoking `visit` on every node (tests use this to build
/// order-independent checksums).
[[nodiscard]] TreeStats enumerate(const TreeParams& params,
                                  const std::function<void(const Node&)>& visit);

}  // namespace hupc::uts
