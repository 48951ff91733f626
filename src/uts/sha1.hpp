// Portable SHA-1 (FIPS 180-1), used as the splittable deterministic RNG of
// the UTS benchmark — the reference UTS implementation derives each child's
// 20-byte state by hashing the parent's state with the child index, which
// makes tree shape a pure function of the root seed regardless of the
// parallel schedule. (SHA-1 is cryptographically broken; here it is only a
// high-quality deterministic mixer, exactly as in UTS.)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace hupc::uts {

using Digest = std::array<std::uint8_t, 20>;

/// One-shot SHA-1 of an arbitrary message.
[[nodiscard]] Digest sha1(std::span<const std::uint8_t> message);

/// The UTS state-split operation: digest of parent_state || child_index
/// (child index as 4 big-endian bytes, per the reference implementation).
[[nodiscard]] Digest split_state(const Digest& parent, std::uint32_t child_index);

/// Interpret the leading 4 bytes of a state as a uniform in [0, 1).
[[nodiscard]] double uniform_from(const Digest& state);

}  // namespace hupc::uts
