#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "uts/sha1.hpp"
#include "uts/tree.hpp"

namespace {

using namespace hupc::uts;  // NOLINT: test-local convenience

std::span<const std::uint8_t> bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

/// Byte-wise SHA-1 with the full 80-word schedule and the FIPS 180-1 round
/// functions as written: the oracle the unrolled kernel is checked against.
Digest oracle_sha1(std::span<const std::uint8_t> message) {
  const auto rotl = [](std::uint32_t x, int k) {
    return (x << k) | (x >> (32 - k));
  };
  std::uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                        0xC3D2E1F0u};
  const auto process_block = [&](const std::uint8_t* block) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(block[4 * i]) << 24) |
             (std::uint32_t(block[4 * i + 1]) << 16) |
             (std::uint32_t(block[4 * i + 2]) << 8) |
             std::uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t temp = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = temp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  };
  // The message, the 0x80 marker, zeros, then the bit length in 8 bytes.
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    process_block(padded.data() + off);
  }
  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
  }
  return out;
}

/// The oracle's split: SHA-1 of parent || be32(child_index).
Digest oracle_split(const Digest& parent, std::uint32_t child_index) {
  std::uint8_t buf[24];
  std::memcpy(buf, parent.data(), 20);
  for (int i = 0; i < 4; ++i) {
    buf[20 + i] = static_cast<std::uint8_t>(child_index >> (24 - 8 * i));
  }
  return oracle_sha1(buf);
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

TEST(Sha1, MatchesOracleAtEveryLengthUpTo300) {
  // Covers one-block and two-block padding (55/56, 119/120 bytes) and the
  // block edges (63/64, 127/128) by value, not only by distinctness.
  hupc::util::Xoshiro256ss rng(300);
  for (std::size_t n = 0; n <= 300; ++n) {
    std::vector<std::uint8_t> msg(n);
    for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(sha1(msg), oracle_sha1(msg)) << "length " << n;
  }
}

TEST(Sha1, SplitStateMatchesOracleOnLongChain) {
  // Every byte of the first two indices is non-zero, so a misplaced or
  // dropped index byte changes the digest; the last two are the sign-bit and
  // all-zero edges.
  Digest d = sha1(bytes("chain"));
  for (std::uint32_t index : {0x01020304u, 0xFFFFFFFFu, 0x80000000u, 0u}) {
    ASSERT_EQ(split_state(d, index), oracle_split(d, index)) << index;
  }
  // A dependent chain: each parent is the previous child, so one wrong
  // word would carry into every later step.
  hupc::util::Xoshiro256ss rng(100'000);
  for (int step = 0; step < 100'000; ++step) {
    const auto index = static_cast<std::uint32_t>(
        step % 2 == 0 ? static_cast<std::uint64_t>(step) : rng.next());
    const Digest child = split_state(d, index);
    ASSERT_EQ(child, oracle_split(d, index)) << "step " << step;
    d = child;
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

TEST(Tree, DefaultTreeShapeIsPinned) {
  // The T3 binomial tree that uts_search and hostbench run (root seed 42,
  // default b0). Its shape is a function of the SHA-1 splits alone, so this
  // pins the kernel end to end.
  const TreeStats s = enumerate(TreeParams{});
  EXPECT_EQ(s.nodes, 490'425u);
  EXPECT_EQ(s.leaves, 429'371u);
  EXPECT_EQ(s.max_depth, 541u);
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
