// VIS descriptor tests (DESIGN.md §15): strided/indexed transfers move
// exactly the bytes an element loop would, edge cases validate eagerly,
// and the packed footprint shows up in the network accounting — one
// injection per packed message, regions and payload conserved.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "fft/ft_real.hpp"
#include "gas/gas.hpp"
#include "linalg/summa.hpp"
#include "sim/sim.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using gas::GlobalPtr;
using gas::IndexedSpec;
using gas::Runtime;
using gas::StridedSpec;
using gas::Thread;

gas::Config cfg(int threads, int nodes) {
  gas::Config c;
  c.machine = topo::lehman(nodes);
  c.threads = threads;
  return c;
}

constexpr std::size_t kSlab = 64;

// 4 threads over 2 nodes: rank 0 and rank 2 live on different nodes, so
// 0 -> 2 transfers take the rma path where packed accounting happens.
constexpr int kThreads = 4;
constexpr int kNodes = 2;
constexpr int kRemote = 2;

double tag(std::size_t i) { return 1000.0 + static_cast<double>(i); }

TEST(GasVis, StridedPutMatchesElementLoopOracle) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) slab.raw[i] = -1.0;

  // rows(3, 4, 5): 4 runs of 3 elements, 5 apart.
  const auto spec = StridedSpec::rows(3, 4, 5);
  std::vector<double> src(spec.elems());
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = tag(i);

  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) co_await t.copy_strided(slab, spec, src.data());
  });
  rt.run_to_completion();

  // Element-loop oracle over the same footprint.
  std::vector<double> oracle(kSlab, -1.0);
  std::size_t idx = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t l = 0; l < 3; ++l) oracle[j * 5 + l] = tag(idx++);
  }
  EXPECT_EQ(0, std::memcmp(slab.raw, oracle.data(), kSlab * sizeof(double)));

  // The footprint crossed nodes as ONE packed message of 4 regions.
  EXPECT_EQ(rt.network().total_vis_messages(), 1u);
  EXPECT_EQ(rt.network().total_vis_regions(), 4u);
  EXPECT_DOUBLE_EQ(rt.network().total_vis_payload_bytes(),
                   static_cast<double>(spec.elems() * sizeof(double)));
}

TEST(GasVis, StridedGetMatchesElementLoopOracle) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) slab.raw[i] = tag(i);

  const auto spec = StridedSpec::rows(2, 3, 7);
  std::vector<double> got(spec.elems(), 0.0);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) co_await t.copy_strided(got.data(), slab, spec);
  });
  rt.run_to_completion();

  std::vector<double> oracle;
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t l = 0; l < 2; ++l) oracle.push_back(tag(j * 7 + l));
  }
  ASSERT_EQ(got.size(), oracle.size());
  EXPECT_EQ(0,
            std::memcmp(got.data(), oracle.data(), got.size() * sizeof(double)));
  EXPECT_EQ(rt.network().total_vis_messages(), 1u);
  EXPECT_EQ(rt.network().total_vis_regions(), 3u);
}

TEST(GasVis, IndexedPutAndGetRoundTrip) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) slab.raw[i] = 0.0;

  IndexedSpec spec;
  spec.regions = {{0, 2}, {5, 1}, {9, 3}};
  std::vector<double> src(spec.elems());
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = tag(i);
  std::vector<double> got(spec.elems(), 0.0);

  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    co_await t.copy_irregular(slab, spec, src.data());
    co_await t.copy_irregular(got.data(), slab, spec);
  });
  rt.run_to_completion();

  EXPECT_EQ(0,
            std::memcmp(got.data(), src.data(), src.size() * sizeof(double)));
  // One packed put + one packed get, 3 regions each.
  EXPECT_EQ(rt.network().total_vis_messages(), 2u);
  EXPECT_EQ(rt.network().total_vis_regions(), 6u);
  // Sum of region bytes equals the transferred payload, both directions.
  EXPECT_DOUBLE_EQ(rt.network().total_vis_payload_bytes(),
                   2.0 * static_cast<double>(spec.elems() * sizeof(double)));
}

TEST(GasVis, SharedToSharedStridedTransposesBlock) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto a = rt.heap().alloc<double>(0, kSlab);
  auto b = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) a.raw[i] = tag(i);
  for (std::size_t i = 0; i < kSlab; ++i) b.raw[i] = 0.0;

  // Same rows footprint both sides: a column block moves layout-preserving.
  const auto spec = StridedSpec::rows(2, 4, 6);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) co_await t.copy_strided(b, spec, a, spec);
  });
  rt.run_to_completion();

  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t l = 0; l < 2; ++l) {
      EXPECT_EQ(b.raw[j * 6 + l], tag(j * 6 + l));
    }
  }
  EXPECT_EQ(rt.network().total_vis_messages(), 1u);
  EXPECT_EQ(rt.network().total_vis_regions(), 4u);
}

TEST(GasVis, ZeroLengthRegionsAreDroppedAndAllZeroIsFree) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) slab.raw[i] = -1.0;

  IndexedSpec sparse;  // zero-length regions interleaved with real ones
  sparse.regions = {{0, 0}, {2, 2}, {6, 0}, {8, 1}};
  std::vector<double> src(sparse.elems());
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = tag(i);

  StridedSpec empty = StridedSpec::rows(0, 4, 3);  // zero-extent runs
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    co_await t.copy_irregular(slab, sparse, src.data());
    co_await t.copy_strided(slab, empty, src.data());  // moves nothing
  });
  rt.run_to_completion();

  EXPECT_EQ(slab.raw[2], tag(0));
  EXPECT_EQ(slab.raw[3], tag(1));
  EXPECT_EQ(slab.raw[8], tag(2));
  EXPECT_EQ(slab.raw[0], -1.0);
  // The sparse put packs its 2 surviving regions; the empty spec moves no
  // bytes and injects nothing.
  EXPECT_EQ(rt.network().total_vis_messages(), 1u);
  EXPECT_EQ(rt.network().total_vis_regions(), 2u);
  EXPECT_EQ(rt.network().total_messages(), 1u);
}

TEST(GasVis, StrideEqualToExtentMergesIntoPlainTransfer) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) slab.raw[i] = 0.0;

  // stride == extent: the 3 runs are contiguous and merge back into one —
  // a plain (non-VIS) message, bit-identical to contiguous copy().
  const auto spec = StridedSpec::rows(4, 3, 4);
  std::vector<double> src(spec.elems());
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = tag(i);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) co_await t.copy_strided(slab, spec, src.data());
  });
  rt.run_to_completion();

  EXPECT_EQ(0,
            std::memcmp(slab.raw, src.data(), src.size() * sizeof(double)));
  EXPECT_EQ(rt.network().total_vis_messages(), 0u);
  EXPECT_EQ(rt.network().total_messages(), 1u);
}

TEST(GasVis, OverlappingDestinationsAreRejectedEagerly) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  std::vector<double> src(16, 0.0);

  int rejected = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    IndexedSpec overlap;
    overlap.regions = {{0, 3}, {2, 2}};  // [0,3) and [2,4) collide
    try {
      co_await t.copy_irregular(slab, overlap, src.data());
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    try {
      // stride < extent: runs [0,4), [2,6), ... overlap.
      co_await t.copy_strided(slab, StridedSpec::rows(4, 3, 2), src.data());
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    try {
      // element-count mismatch between the two sides.
      co_await t.copy_strided(slab, StridedSpec::rows(2, 2, 4), src.data(),
                              StridedSpec::contiguous(5));
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  });
  rt.run_to_completion();

  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(rt.network().total_messages(), 0u);  // nothing was injected
}

TEST(GasVis, AsyncStridedResolvesAndApplies) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) slab.raw[i] = 0.0;

  const auto spec = StridedSpec::rows(2, 3, 8);
  std::vector<double> src(spec.elems());
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = tag(i);
  bool resolved = false;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    auto f = t.launch_async(t.copy_strided(slab, spec, src.data()));
    co_await f.wait();
    resolved = true;
  });
  rt.run_to_completion();

  EXPECT_TRUE(resolved);
  std::size_t idx = 0;
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t l = 0; l < 2; ++l) {
      EXPECT_EQ(slab.raw[j * 8 + l], tag(idx++));
    }
  }
  EXPECT_EQ(rt.network().total_vis_messages(), 1u);
}

TEST(GasVis, CoalescerDefersPackedPutUntilFlush) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) slab.raw[i] = -1.0;

  const auto spec = StridedSpec::rows(2, 3, 5);
  std::vector<double> src(spec.elems());
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = tag(i);
  bool deferred = false;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    t.begin_coalesce({});
    co_await t.copy_strided(slab, spec, src.data());
    // Inside the epoch the regions sit in the destination node's buffer:
    // the values were captured but nothing has been applied yet.
    deferred = slab.raw[0] == -1.0;
    co_await t.end_coalesce();
  });
  rt.run_to_completion();

  EXPECT_TRUE(deferred);
  std::size_t idx = 0;
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t l = 0; l < 2; ++l) {
      EXPECT_EQ(slab.raw[j * 5 + l], tag(idx++));
    }
  }
}

TEST(GasVis, ReadCachePrefetchesStridedFootprintInOneFill) {
  sim::Engine e;
  Runtime rt(e, cfg(kThreads, kNodes));
  auto slab = rt.heap().alloc<double>(kRemote, kSlab);
  for (std::size_t i = 0; i < kSlab; ++i) slab.raw[i] = tag(i);

  const auto spec = StridedSpec::rows(2, 3, 6);
  std::vector<double> first(spec.elems(), 0.0), second(spec.elems(), 0.0);
  std::uint64_t after_first = 0, after_second = 0, after_put = 0;
  std::vector<double> third(spec.elems(), 0.0);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    t.begin_read_cache({});
    co_await t.copy_strided(first.data(), slab, spec);
    after_first = rt.network().total_messages();
    co_await t.copy_strided(second.data(), slab, spec);
    after_second = rt.network().total_messages();
    // A conflicting strided PUT invalidates exactly the lines it covers, so
    // the next get must refetch.
    co_await t.copy_strided(slab, spec, second.data());
    after_put = rt.network().total_messages();
    co_await t.copy_strided(third.data(), slab, spec);
    t.end_read_cache();
  });
  rt.run_to_completion();

  // First get: one packed fill. Second: served from cache, no traffic.
  EXPECT_EQ(after_first, 1u);
  EXPECT_EQ(after_second, after_first);
  // The put writes through (one more message), and the invalidation forces
  // the third get back to the wire.
  EXPECT_GT(after_put, after_second);
  EXPECT_GT(rt.network().total_messages(), after_put);
  EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                           first.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(first.data(), third.data(),
                           first.size() * sizeof(double)));
}

TEST(GasVis, SummaVisPanelsProduceBitIdenticalC) {
  const auto run = [](bool vis) {
    sim::Engine e;
    Runtime rt(e, cfg(4, 2));
    linalg::Summa summa(rt, linalg::ProcessGrid{2, 2}, 8, 8, 8, vis);
    summa.fill(99);
    rt.spmd([&summa](Thread& t) -> sim::Task<void> { co_await summa.run(t); });
    rt.run_to_completion();
    return summa.dense_c();
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  EXPECT_EQ(0, std::memcmp(off.data(), on.data(), off.size() * sizeof(double)));
}

TEST(GasVis, FtRealVisExchangeIsBitIdenticalToPerRowLoop) {
  const auto run = [](bool vis) {
    sim::Engine e;
    Runtime rt(e, cfg(4, 2));
    fft::FtReal ft(rt, fft::FtParams{32, 16, 32, 1, "test"},
                   fft::CommVariant::split_phase, vis);
    ft.fill_input(4321);
    rt.spmd([&ft](Thread& t) -> sim::Task<void> { co_await ft.run(t); });
    rt.run_to_completion();
    return ft.gather_result();
  };
  const auto loop = run(false);
  const auto vis = run(true);
  ASSERT_EQ(loop.size(), vis.size());
  EXPECT_EQ(0, std::memcmp(loop.data(), vis.data(),
                           loop.size() * sizeof(fft::Complex)));
}

}  // namespace
