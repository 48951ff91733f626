#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/histogram.hpp"

namespace {

namespace util = hupc::util;

// The Histogram cases pin LogHistogram's unit geometry (unit 1, no
// sub-buckets): the classic [0,1), [1,2), [2,4), ... doubling layout.

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  const util::LogHistogram h(1.0, 0, 8);
  EXPECT_DOUBLE_EQ(h.bucket_floor(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(2), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(5), 16.0);
  ASSERT_EQ(h.buckets(), 9);
  for (int i = 1; i < h.buckets(); ++i) {
    EXPECT_DOUBLE_EQ(h.bucket_floor(i), std::ldexp(1.0, i - 1)) << i;
  }
}

TEST(Histogram, ValuesLandInCorrectBuckets) {
  util::LogHistogram h(1.0, 0, 10);
  h.add(0.5);    // [0,1)
  h.add(1.0);    // [1,2)
  h.add(3.9);    // [2,4)
  h.add(4.0);    // [4,8)
  h.add(1000.0); // [512,1024) -> bucket 10? index = 1+floor(log2(1000)) = 10
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, OverflowClampsToTopBucket) {
  util::LogHistogram h(1.0, 0, 4);  // top bucket index 4: [8, 16)
  h.add(1e12);
  EXPECT_EQ(h.bucket(4), 1u);
}

TEST(Histogram, WeightsAccumulate) {
  util::LogHistogram h(1.0, 0, 8);
  h.add(2.0, 10);
  h.add(2.5, 5);
  EXPECT_EQ(h.bucket(2), 15u);
  EXPECT_EQ(h.total(), 15u);
}

TEST(LogHistogram, SubBucketsRefineOctaves) {
  // sub_bits=2: octave [1,2) splits into [1,1.25) [1.25,1.5) [1.5,1.75)
  // [1.75,2).
  util::LogHistogram h(1.0, 2, 8);
  EXPECT_DOUBLE_EQ(h.bucket_floor(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(2), 1.25);
  EXPECT_DOUBLE_EQ(h.bucket_floor(5), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(6), 2.5);
  h.add(1.3);
  EXPECT_EQ(h.bucket(2), 1u);
  h.add(2.6);
  EXPECT_EQ(h.bucket(6), 1u);
}

TEST(LogHistogram, ValueJustBelowAPowerOfTwoStaysInItsOctave) {
  // std::log2(nextafter(16, 0)) rounds to exactly 4.0, which once filed
  // the value into octave 4 (bucket 17) instead of the top sub-bucket of
  // octave 3, [14, 16): bucket 16.
  util::LogHistogram h(1.0, 2, 40);
  const double below16 = std::nextafter(16.0, 0.0);
  h.add(below16);
  EXPECT_EQ(h.bucket(16), 1u);
  EXPECT_EQ(h.bucket(17), 0u);
  EXPECT_LE(h.bucket_floor(16), below16);
  EXPECT_GT(h.bucket_floor(17), below16);
  h.add(16.0);  // exactly a power of two: the first sub-bucket of octave 4
  EXPECT_EQ(h.bucket(17), 1u);
  // The same edge for every octave at the unit geometry.
  util::LogHistogram unit(1.0, 0, 40);
  for (int m = 1; m < 40; ++m) {
    unit.add(std::nextafter(std::ldexp(1.0, m), 0.0));
    EXPECT_EQ(unit.bucket(m), 1u) << "octave " << m - 1;
  }
  // Past the top octave, infinity included, values clamp into the top.
  util::LogHistogram top(1e-6, 3, 20);
  top.add(1e300);
  top.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(top.bucket(top.buckets() - 1), 2u);
}

TEST(LogHistogram, UnitScalesTheFirstBucket) {
  util::LogHistogram h(1e-6, 0, 8);  // microsecond unit
  h.add(0.5e-6);  // below the unit: bucket 0
  h.add(3e-6);    // [2us, 4us): bucket 2 (octave 1)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_floor(2), 2e-6);
}

TEST(LogHistogram, PercentileInterpolatesAndClampsToExactExtrema) {
  util::LogHistogram h(1.0, 4, 16);
  for (int i = 0; i < 99; ++i) h.add(10.0);
  h.add(100.0);
  // p50 lands in 10's sub-bucket but can never undershoot the exact min.
  EXPECT_GE(h.percentile(0.50), 10.0);
  EXPECT_LE(h.percentile(0.50), 10.625);  // 10's sub-bucket ceiling
  EXPECT_LE(h.percentile(0.999), 100.0);  // clamped to exact max
  EXPECT_GE(h.percentile(0.995), 10.0);
  EXPECT_DOUBLE_EQ(h.min_value(), 10.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 100.0);
  EXPECT_DOUBLE_EQ(util::LogHistogram().percentile(0.5), 0.0);  // empty
}

TEST(LogHistogram, MergeFoldsCountsAndExtrema) {
  util::LogHistogram a(1.0, 2, 8);
  util::LogHistogram b(1.0, 2, 8);
  a.add(1.0, 3);
  b.add(6.0, 2);
  a.merge(b);
  EXPECT_EQ(a.total(), 5u);
  EXPECT_DOUBLE_EQ(a.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(a.max_value(), 6.0);
  util::LogHistogram other_geometry(2.0, 2, 8);
  EXPECT_THROW(a.merge(other_geometry), std::invalid_argument);
}

TEST(LogHistogram, MatchesLegacyHistogramLayoutAtUnitGeometry) {
  // LogHistogram(1.0, 0, n) keeps the layout of the deleted fixed-doubling
  // Histogram(n): bucket 0 is [0,1), bucket i >= 1 is [2^(i-1), 2^i), and
  // values past the top bucket clamp into it.
  util::LogHistogram log(1.0, 0, 8);
  const double values[] = {0.0, 0.5, 1.0, 2.0, 3.9, 64.0, 1e9};
  for (double v : values) log.add(v);
  const std::uint64_t expected[] = {2, 1, 2, 0, 0, 0, 0, 1, 1};
  ASSERT_EQ(log.buckets(), 9);
  for (int i = 0; i < log.buckets(); ++i) {
    EXPECT_EQ(log.bucket(i), expected[i]) << "bucket " << i;
    const double floor = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
    EXPECT_DOUBLE_EQ(log.bucket_floor(i), floor) << "bucket " << i;
  }
  EXPECT_EQ(log.total(), 7u);
}

TEST(Histogram, PrintRendersNonEmptyBuckets) {
  util::LogHistogram h(1.0, 0, 6);
  h.add(3.0, 4);
  std::ostringstream os;
  h.print(os, "B");
  EXPECT_NE(os.str().find("[2, 4) B: 4"), std::string::npos);
  std::ostringstream empty;
  util::LogHistogram(1.0, 0, 4).print(empty);
  EXPECT_EQ(empty.str(), "(empty)\n");
}

}  // namespace
