// Log-bucketed histograms: message-size and latency distributions in
// benches, network diagnostics, and the kv serving harness's percentile
// reporting (DESIGN.md §16).
//
// LogHistogram has two knobs over plain power-of-two buckets: a `unit`
// scale (bucket 0 absorbs [0, unit), so microsecond-scale latencies do not
// all collapse into one bucket) and `sub_bits` linear sub-buckets per
// octave (HDR-histogram style: 2^sub_bits sub-buckets keep the relative
// quantization error below 2^-sub_bits everywhere). LogHistogram(1, 0, n)
// is the classic [0,1), [1,2), [2,4), ... layout.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hupc::util {

class LogHistogram {
 public:
  /// Bucket 0 holds [0, unit). Octave m >= 0 covers
  /// [unit*2^m, unit*2^(m+1)) split into 2^sub_bits equal sub-buckets;
  /// `max_log2` octaves are tracked and values above the top clamp into
  /// its last sub-bucket.
  explicit LogHistogram(double unit = 1.0, int sub_bits = 0,
                        int max_log2 = 32);

  void add(double value, std::uint64_t weight = 1);
  /// Fold another histogram in; geometries must match (per-rank merge).
  void merge(const LogHistogram& other);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(int index) const {
    return counts_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] int buckets() const noexcept {
    return static_cast<int>(counts_.size());
  }
  [[nodiscard]] double unit() const noexcept { return unit_; }
  [[nodiscard]] int sub_bits() const noexcept { return sub_bits_; }

  /// Exact extrema of everything added (percentile estimates clamp here).
  [[nodiscard]] double min_value() const noexcept { return min_; }
  [[nodiscard]] double max_value() const noexcept { return max_; }

  /// Lower bound of bucket `index`.
  [[nodiscard]] double bucket_floor(int index) const;

  /// Smallest bucket ceiling covering at least fraction `p` (0..1) of the
  /// weight. Returns 0 for an empty histogram.
  [[nodiscard]] double percentile_ceiling(double p) const;

  /// Percentile estimate: locates the bucket covering rank ceil(p*total),
  /// interpolates linearly within it placing each rank at the midpoint of
  /// its 1/count sliver (approximating util::percentile_sorted without the
  /// upper-edge bias), and clamps to the exact [min, max]. Returns 0 for
  /// an empty histogram.
  [[nodiscard]] double percentile(double p) const;

  /// Text rendering: one line per non-empty bucket with a proportional bar.
  void print(std::ostream& os, const std::string& unit_label = "") const;

 private:
  [[nodiscard]] int index_of(double value) const;

  double unit_ = 1.0;
  int sub_bits_ = 0;
  int max_log2_ = 32;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace hupc::util
