#include "uts/tree.hpp"

namespace hupc::uts {

Node root_node(const TreeParams& params) {
  const std::uint8_t seed_bytes[4] = {
      static_cast<std::uint8_t>(params.root_seed >> 24),
      static_cast<std::uint8_t>(params.root_seed >> 16),
      static_cast<std::uint8_t>(params.root_seed >> 8),
      static_cast<std::uint8_t>(params.root_seed)};
  return Node{sha1(std::span<const std::uint8_t>(seed_bytes, 4)), 0};
}

int num_children(const TreeParams& params, const Node& node) {
  if (node.depth == 0) return params.b0;
  return uniform_from(node.state) < params.q ? params.m : 0;
}

Node child_of(const Node& parent, std::uint32_t i) {
  return Node{split_state(parent.state, i), parent.depth + 1};
}

void expand(const TreeParams& params, const Node& node, std::vector<Node>& out) {
  const int n = num_children(params, node);
  for (int i = 0; i < n; ++i) {
    out.push_back(child_of(node, static_cast<std::uint32_t>(i)));
  }
}

TreeStats enumerate(const TreeParams& params) {
  return enumerate(params, [](const Node&) {});
}

TreeStats enumerate(const TreeParams& params,
                    const std::function<void(const Node&)>& visit) {
  TreeStats stats;
  std::vector<Node> stack;
  stack.push_back(root_node(params));
  while (!stack.empty()) {
    const Node node = stack.back();
    stack.pop_back();
    ++stats.nodes;
    if (node.depth > stats.max_depth) stats.max_depth = node.depth;
    visit(node);
    const std::size_t before = stack.size();
    expand(params, node, stack);
    if (stack.size() == before) ++stats.leaves;
  }
  return stats;
}

}  // namespace hupc::uts
