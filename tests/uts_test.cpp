#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "uts/sha1.hpp"
#include "uts/tree.hpp"

namespace {

using namespace hupc::uts;  // NOLINT: test-local convenience

std::span<const std::uint8_t> bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

std::string to_hex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(40);
  for (std::uint8_t b : digest) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xF]);
  }
  return s;
}

// FIPS 180-1 known-answer tests.
TEST(Sha1, KnownAnswerEmpty) {
  EXPECT_EQ(to_hex(sha1(bytes(""))), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, KnownAnswerAbc) {
  EXPECT_EQ(to_hex(sha1(bytes("abc"))), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, KnownAnswerTwoBlockMessage) {
  EXPECT_EQ(to_hex(sha1(bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, KnownAnswerMillionA) {
  std::vector<std::uint8_t> msg(1'000'000, 'a');
  EXPECT_EQ(to_hex(sha1(msg)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, PaddingBoundaries) {
  // Lengths around the 55/56/63/64-byte padding edge cases must not crash
  // and must be distinct.
  std::set<std::string> seen;
  for (std::size_t n : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::vector<std::uint8_t> msg(n, 0x42);
    EXPECT_TRUE(seen.insert(to_hex(sha1(msg))).second) << n;
  }
}

TEST(Sha1, SplitStateIsDeterministicAndSensitiveToIndex) {
  const Digest parent = sha1(bytes("root"));
  EXPECT_EQ(split_state(parent, 0), split_state(parent, 0));
  EXPECT_NE(split_state(parent, 0), split_state(parent, 1));
  EXPECT_NE(split_state(parent, 0), split_state(parent, 0x100));
}

TEST(Sha1, UniformFromInUnitInterval) {
  Digest d = sha1(bytes("x"));
  for (int i = 0; i < 100; ++i) {
    const double u = uniform_from(d);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    d = split_state(d, static_cast<std::uint32_t>(i));
  }
}

TEST(Tree, RootIsDepthZeroWithConfiguredFanout) {
  TreeParams p;
  p.b0 = 100;
  const Node root = root_node(p);
  EXPECT_EQ(root.depth, 0u);
  EXPECT_EQ(num_children(p, root), 100);
}

TEST(Tree, BinomialEnumerationIsDeterministic) {
  TreeParams p;
  p.b0 = 500;
  p.root_seed = 7;
  const TreeStats a = enumerate(p);
  const TreeStats b = enumerate(p);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_GT(a.nodes, 500u);  // at least root + its children
}

TEST(Tree, DifferentSeedsGiveDifferentTrees) {
  TreeParams p;
  p.b0 = 500;
  p.root_seed = 1;
  const auto a = enumerate(p);
  p.root_seed = 2;
  const auto b = enumerate(p);
  EXPECT_NE(a.nodes, b.nodes);
}

TEST(Tree, NodeAccountingIsConsistent) {
  TreeParams p;
  p.b0 = 200;
  p.root_seed = 3;
  std::uint64_t visited = 0;
  std::uint64_t children_total = 0;
  const TreeStats stats = enumerate(p, [&](const Node& n) {
    ++visited;
    children_total += static_cast<std::uint64_t>(num_children(p, n));
  });
  EXPECT_EQ(visited, stats.nodes);
  // Every node except the root is someone's child.
  EXPECT_EQ(children_total, stats.nodes - 1);
}

TEST(Tree, GeometricRespectsDepthLimit) {
  TreeParams p;
  p.shape = Shape::geometric;
  p.geo_b = 3.0;
  p.max_depth = 5;
  p.root_seed = 11;
  const TreeStats stats = enumerate(p);
  EXPECT_LE(stats.max_depth, 6u);  // children of depth-5 nodes are cut off
  EXPECT_GT(stats.nodes, 1u);
}

TEST(Tree, BinomialIsHeavyTailedAcrossSeeds) {
  // The load-imbalance property the benchmark depends on: subtree sizes
  // vary wildly. Sample the size of single-child subtrees.
  TreeParams p;
  p.b0 = 1;  // a root with one child: the child's subtree is binomial
  std::uint64_t min_nodes = UINT64_MAX, max_nodes = 0;
  for (std::uint32_t seed = 0; seed < 40; ++seed) {
    p.root_seed = seed;
    const auto s = enumerate(p);
    min_nodes = std::min(min_nodes, s.nodes);
    max_nodes = std::max(max_nodes, s.nodes);
  }
  EXPECT_LE(min_nodes, 3u);        // many immediate die-outs
  EXPECT_GE(max_nodes, 50u);       // and some long chains
}

}  // namespace
