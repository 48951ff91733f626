#include "uts/sha1.hpp"

#include <cstring>

namespace hupc::uts {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

struct Sha1Ctx {
  std::uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                        0xC3D2E1F0u};

  void process_block(const std::uint8_t* block) {
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
  }
};

}  // namespace

Digest sha1(std::span<const std::uint8_t> message) {
  Sha1Ctx ctx;
  const std::size_t n = message.size();
  std::size_t off = 0;
  while (n - off >= 64) {
    ctx.process_block(message.data() + off);
    off += 64;
  }
  // Final padded block(s).
  std::uint8_t tail[128] = {};
  const std::size_t rem = n - off;
  std::memcpy(tail, message.data() + off, rem);
  tail[rem] = 0x80;
  const std::size_t total = rem + 1 + 8 <= 64 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(n) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[total - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  ctx.process_block(tail);
  if (total == 128) ctx.process_block(tail + 64);

  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(ctx.h[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(ctx.h[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(ctx.h[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(ctx.h[i]);
  }
  return out;
}

Digest split_state(const Digest& parent, std::uint32_t child_index) {
  std::uint8_t buf[24];
  std::memcpy(buf, parent.data(), 20);
  buf[20] = static_cast<std::uint8_t>(child_index >> 24);
  buf[21] = static_cast<std::uint8_t>(child_index >> 16);
  buf[22] = static_cast<std::uint8_t>(child_index >> 8);
  buf[23] = static_cast<std::uint8_t>(child_index);
  return sha1(std::span<const std::uint8_t>(buf, 24));
}

double uniform_from(const Digest& state) {
  const std::uint32_t v = (std::uint32_t(state[0]) << 24) |
                          (std::uint32_t(state[1]) << 16) |
                          (std::uint32_t(state[2]) << 8) | std::uint32_t(state[3]);
  return static_cast<double>(v) / 4294967296.0;
}

}  // namespace hupc::uts
