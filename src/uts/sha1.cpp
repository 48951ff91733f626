#include "uts/sha1.hpp"

#include <algorithm>
#include <array>

namespace hupc::uts {

namespace {

using State = std::array<std::uint32_t, 5>;

constexpr State kInit = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                         0xC3D2E1F0u};

// k is 1, 5 or 30 at every call, so neither shift is by 0 or 32.
constexpr std::uint32_t rotl(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

// The round functions of FIPS 180-1 (Parity serves rounds 20-39 and
// 60-79). Ch and Maj are written in forms with one operation fewer; both
// equal the standard ones bit for bit.
constexpr std::uint32_t ch(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return d ^ (b & (c ^ d));
}
constexpr std::uint32_t parity(std::uint32_t b, std::uint32_t c,
                               std::uint32_t d) {
  return b ^ c ^ d;
}
constexpr std::uint32_t maj(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return (b & c) | (d & (b | c));
}

// One SHA-1 compression of the block whose 16 big-endian words are w (which
// it consumes as schedule scratch) into the chaining value h. The 80 rounds
// are unrolled by macros, not by templates or lambdas, so that a Debug
// build runs them without a call per round.
void compress(State& h, std::uint32_t (&w)[16]) {
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
// Schedule word i: the block's own word for i < 16; after that the 16-word
// window w[i & 15], where each round overwrites the word it no longer needs
// with W[i] = rotl(W[i-3] ^ W[i-8] ^ W[i-14] ^ W[i-16], 1).
#define HUPC_SHA1_W(i)                                                    \
  ((i) < 16 ? w[(i) & 15]                                                 \
            : (w[(i) & 15] = rotl(w[((i) - 3) & 15] ^ w[((i) - 8) & 15] ^ \
                                      w[((i) - 14) & 15] ^ w[(i) & 15],   \
                                  1)))
// Round i maps (a, b, c, d, e) to (t, a, rotl(b, 30), c, d) with
// t = rotl(a, 5) + f(b, c, d) + e + k + W[i]. Instead of moving four words,
// it writes t over e and the next round names the variables one place on,
// so after five rounds every word is back under its own name.
#define HUPC_SHA1_ROUND(f, k, i, a, b, c, d, e)        \
  e += rotl(a, 5) + f(b, c, d) + (k) + HUPC_SHA1_W(i); \
  b = rotl(b, 30)
#define HUPC_SHA1_FIVE(f, k, i)                  \
  HUPC_SHA1_ROUND(f, k, i, a, b, c, d, e);       \
  HUPC_SHA1_ROUND(f, k, (i) + 1, e, a, b, c, d); \
  HUPC_SHA1_ROUND(f, k, (i) + 2, d, e, a, b, c); \
  HUPC_SHA1_ROUND(f, k, (i) + 3, c, d, e, a, b); \
  HUPC_SHA1_ROUND(f, k, (i) + 4, b, c, d, e, a)
#define HUPC_SHA1_TWENTY(f, k, i) \
  HUPC_SHA1_FIVE(f, k, i);        \
  HUPC_SHA1_FIVE(f, k, (i) + 5);  \
  HUPC_SHA1_FIVE(f, k, (i) + 10); \
  HUPC_SHA1_FIVE(f, k, (i) + 15)
  HUPC_SHA1_TWENTY(ch, 0x5A827999u, 0);
  HUPC_SHA1_TWENTY(parity, 0x6ED9EBA1u, 20);
  HUPC_SHA1_TWENTY(maj, 0x8F1BBCDCu, 40);
  HUPC_SHA1_TWENTY(parity, 0xCA62C1D6u, 60);
#undef HUPC_SHA1_TWENTY
#undef HUPC_SHA1_FIVE
#undef HUPC_SHA1_ROUND
#undef HUPC_SHA1_W
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

void compress_bytes(State& h, const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  compress(h, w);
}

Digest to_digest(const State& h) {
  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
  }
  return out;
}

}  // namespace

Digest sha1(std::span<const std::uint8_t> message) {
  State h = kInit;
  const std::size_t n = message.size();
  std::size_t off = 0;
  while (n - off >= 64) {
    compress_bytes(h, message.data() + off);
    off += 64;
  }
  // Final padded block(s).
  std::uint8_t tail[128] = {};
  const std::size_t rem = n - off;
  // std::copy, not memcpy: an empty span may have a null data().
  std::copy(message.begin() + off, message.end(), tail);
  tail[rem] = 0x80;
  const std::size_t total = rem + 1 + 8 <= 64 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(n) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[total - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  compress_bytes(h, tail);
  if (total == 128) compress_bytes(h, tail + 64);
  return to_digest(h);
}

Digest split_state(const Digest& parent, std::uint32_t child_index) {
  // parent || be32(child_index) is 24 bytes, so its padded form is one
  // block: the six message words, the 0x80 marker, zeros, and the length in
  // bits (192) in the last word.
  const std::uint8_t* p = parent.data();
  std::uint32_t w[16] = {load_be32(p),      load_be32(p + 4),
                         load_be32(p + 8),  load_be32(p + 12),
                         load_be32(p + 16), child_index,
                         0x80000000u,       0,
                         0,                 0,
                         0,                 0,
                         0,                 0,
                         0,                 192};
  State h = kInit;
  compress(h, w);
  return to_digest(h);
}

double uniform_from(const Digest& state) {
  return static_cast<double>(load_be32(state.data())) / 4294967296.0;
}

}  // namespace hupc::uts
