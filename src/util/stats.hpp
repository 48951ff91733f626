// The suite's one scalar percentile. perf::summarize builds its medians and
// bootstrap intervals on it (perf/stats.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

namespace hupc::util {

/// THE percentile definition for the whole suite: linear interpolation
/// between closest ranks (rank = p * (n-1)) over an ALREADY SORTED span,
/// `p01` in [0, 1]. perf::summarize (median, MAD, bootstrap CI) calls
/// this directly; util::LogHistogram::percentile approximates it from
/// bucket counts with a midpoint-rank convention (rank k of a c-count
/// bucket sits at (k - 0.5)/c of the bucket span), so histogram estimates
/// are centered on this definition rather than upper-edge bounds of it.
[[nodiscard]] inline double percentile_sorted(std::span<const double> sorted,
                                              double p01) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double p = std::clamp(p01, 0.0, 1.0);
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace hupc::util
