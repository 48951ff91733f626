#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "gas/gas.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using gas::Backend;
using gas::Config;
using gas::GlobalPtr;
using gas::Runtime;
using gas::Thread;

Config small_config(int threads, Backend backend = Backend::processes,
                    bool pshm = true, int nodes = 2) {
  Config cfg;
  cfg.machine = topo::lehman(nodes);
  cfg.threads = threads;
  cfg.backend = backend;
  cfg.pshm = pshm;
  return cfg;
}

TEST(PresetConfig, PyramidDefaultsToItsDdrNetwork) {
  // kv_server once ran Pyramid over gas::Config's default, Lehman's QDR.
  const Config pyramid = gas::preset_config("pyramid", 2, 16);
  EXPECT_EQ(pyramid.machine.name, "pyramid");
  EXPECT_EQ(pyramid.machine.nodes, 2);
  EXPECT_EQ(pyramid.threads, 16);
  EXPECT_EQ(pyramid.conduit.name, "ib-ddr");
  EXPECT_EQ(gas::preset_config("lehman", 2, 16).conduit.name, "ib-qdr");
  const Config gige =
      gas::preset_config("pyramid", 2, 16, Backend::pthreads, "gige");
  EXPECT_EQ(gige.conduit.name, "gige");
  EXPECT_EQ(gige.backend, Backend::pthreads);
}

TEST(PresetConfig, UnknownNamesListTheKnownOnes) {
  EXPECT_EQ(gas::parse_backend("processes"), Backend::processes);
  EXPECT_EQ(gas::parse_backend("pthreads"), Backend::pthreads);
  const auto rejection = [](auto f) -> std::string {
    try {
      f();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(rejection([] { (void)gas::parse_backend("mpi"); }),
            "unknown backend 'mpi' (known: processes, pthreads)");
  EXPECT_EQ(rejection([] { (void)gas::preset_config("lehman", 1, 8,
                                                    Backend::processes,
                                                    "myrinet"); }),
            "unknown conduit 'myrinet' (known: ib-qdr, ib-ddr, gige)");
}

TEST(SharedArray, BlockCyclicLayout) {
  gas::SharedHeap heap(4);
  auto arr = heap.all_alloc<int>(20, 2);  // shared [2] int a[20] over 4
  EXPECT_EQ(arr.owner_of(0), 0);
  EXPECT_EQ(arr.owner_of(1), 0);
  EXPECT_EQ(arr.owner_of(2), 1);
  EXPECT_EQ(arr.owner_of(7), 3);
  EXPECT_EQ(arr.owner_of(8), 0);  // wraps
  // 10 blocks over 4 threads: threads 0,1 get 3 blocks; 2,3 get 2.
  EXPECT_EQ(arr.local_size(0), 6u);
  EXPECT_EQ(arr.local_size(1), 6u);
  EXPECT_EQ(arr.local_size(2), 4u);
  EXPECT_EQ(arr.local_size(3), 4u);
}

TEST(SharedArray, AtResolvesDistinctAddresses) {
  gas::SharedHeap heap(3);
  auto arr = heap.all_alloc<double>(30, 5);
  for (std::size_t i = 0; i < 30; ++i) {
    auto p = arr.at(i);
    ASSERT_TRUE(p.valid());
    *p.raw = static_cast<double>(i);
  }
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(*arr.at(i).raw, static_cast<double>(i));
  }
}

TEST(SharedArray, PartialTailBlock) {
  gas::SharedHeap heap(2);
  auto arr = heap.all_alloc<int>(7, 4);  // blocks: [0..3]@t0, [4..6]@t1
  EXPECT_EQ(arr.local_size(0), 4u);
  EXPECT_EQ(arr.local_size(1), 3u);
  EXPECT_EQ(arr.owner_of(6), 1);
}

TEST(Segment, AlignmentAndStability) {
  constexpr std::size_t kAlign = alignof(std::max_align_t);  // the maximum
  gas::Segment seg(1024);
  void* a = seg.allocate(100, kAlign);
  void* b = seg.allocate(2000, 8);  // larger than chunk: dedicated chunk
  void* c = seg.allocate(100, kAlign);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % kAlign, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  // Previously returned memory still usable after growth.
  *static_cast<int*>(a) = 7;
  EXPECT_EQ(*static_cast<int*>(a), 7);
}

bool all_zero(const void* p, std::size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  return std::all_of(b, b + bytes, [](unsigned char c) { return c == 0; });
}

// The zero contract (gas/heap.hpp): every allocation reads all-zero, also
// when the host recycles chunks an earlier heap scribbled over. Chunks are
// not zero-filled by the allocator, so this fails if Segment::allocate
// stops zeroing the bytes it hands out.
TEST(SharedHeap, FreshMemoryIsZeroEvenInRecycledChunks) {
  constexpr int kThreads = 4;
  constexpr int kHeaps = 8;
  constexpr std::size_t kBig = (3u << 20) / sizeof(std::uint64_t);  // 3 MiB
  for (int h = 0; h < kHeaps; ++h) {
    gas::SharedHeap heap(kThreads);
    std::vector<std::pair<void*, std::size_t>> handed;
    for (int r = 0; r < kThreads; ++r) {
      auto small = heap.alloc<std::uint64_t>(r, 1);
      auto big = heap.alloc<std::uint64_t>(r, kBig);
      handed.emplace_back(small.raw, sizeof(std::uint64_t));
      handed.emplace_back(big.raw, kBig * sizeof(std::uint64_t));
    }
    // Larger than a chunk: rank 0 gets a dedicated oversized chunk.
    const std::size_t huge = gas::Segment::kDefaultChunk + 4096;
    handed.emplace_back(heap.alloc<unsigned char>(0, huge).raw, huge);
    auto arr = heap.all_alloc<int>(kThreads * 300'000, 1000);
    for (int r = 0; r < kThreads; ++r) {
      handed.emplace_back(arr.slice(r), arr.local_size(r) * sizeof(int));
    }
    auto tiles = heap.all_alloc_2d<double>(700, 500, 64, 64);
    for (int r = 0; r < kThreads; ++r) {
      const std::size_t n = tiles.tiles_of(r) * tiles.tile_elems();
      handed.emplace_back(tiles.slice(r), n * sizeof(double));
    }
    for (const auto& [p, bytes] : handed) {
      ASSERT_TRUE(all_zero(p, bytes)) << "heap " << h << ", " << bytes << " B";
    }
    // Dirty everything so a recycled chunk would carry it into the next heap.
    for (const auto& [p, bytes] : handed) std::memset(p, 0xFF, bytes);
  }
}

// Commit on touch: 1024 ranks that each allocate 8 B own 1024 virtual
// 8 MiB chunks but must not make them resident.
TEST(SharedHeap, SmallAllocationsDoNotCommitWholeChunks) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "poisoning each chunk commits its shadow memory";
#endif
  auto resident_bytes = []() -> long {
    std::ifstream statm("/proc/self/statm");
    long size = 0;
    long resident = -1;
    statm >> size >> resident;
    return resident < 0 ? -1 : resident * sysconf(_SC_PAGESIZE);
  };
  const long before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/statm is not readable";
  gas::SharedHeap heap(1024);
  for (int r = 0; r < heap.threads(); ++r) {
    auto p = heap.alloc<std::uint64_t>(r, 1);
    ASSERT_EQ(*p.raw, 0u);
  }
  const long grown = resident_bytes() - before;
  EXPECT_LT(grown, 64L << 20) << "resident growth " << (grown >> 20)
                              << " MiB for 8 KiB of shared data";
}

// Bytes of a chunk not yet handed out are poisoned under AddressSanitizer:
// writing past an allocation, into the alignment padding after it or into
// the chunk's unallocated tail, is reported instead of silently succeeding.
TEST(SharedHeapDeathTest, OverrunPastAllocationIsReportedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  gas::SharedHeap heap(1);
  auto* a = heap.alloc<std::uint64_t>(0, 1).raw;  // [0, 8)
  auto* b = heap.alloc<std::max_align_t>(0, 1).raw;  // [16, 32): 8 B padding
  auto* past_b = reinterpret_cast<std::uint64_t*>(b + 1);  // the tail
  EXPECT_DEATH(*static_cast<volatile std::uint64_t*>(a + 1) = 1,
               "use-after-poison");
  EXPECT_DEATH(*static_cast<volatile std::uint64_t*>(past_b) = 1,
               "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

TEST(Runtime, SpmdRanksSeeIdentity) {
  sim::Engine e;
  Runtime rt(e, small_config(8));
  std::vector<int> seen(8, -1);
  rt.spmd([&seen](Thread& t) -> sim::Task<void> {
    seen[static_cast<std::size_t>(t.rank())] = t.rank();
    EXPECT_EQ(t.threads(), 8);
    co_return;
  });
  rt.run_to_completion();
  for (int r = 0; r < 8; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

// A rank that dies with an exception, with no peer waiting on it, makes
// run_to_completion rethrow that exception.
TEST(Runtime, FailedRankSurfacesItsException) {
  sim::Engine e;
  Runtime rt(e, small_config(4));
  rt.spmd([](Thread& t) -> sim::Task<void> {
    if (t.rank() == 2) throw std::runtime_error("rank 2 failed");
    co_return;
  });
  try {
    rt.run_to_completion();
    FAIL() << "run_to_completion returned";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "rank 2 failed");
  }
}

// A rank left waiting at a barrier no peer reaches is reported as a rank
// that did not finish.
TEST(Runtime, StrandedRankIsReportedAsUnfinished) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "the stranded rank's suspended frames are never destroyed, "
                  "so LeakSanitizer reports them";
#else
  sim::Engine e;
  Runtime rt(e, small_config(4));
  rt.spmd([](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) co_await t.barrier();
  });
  try {
    rt.run_to_completion();
    FAIL() << "run_to_completion returned";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("did not finish"),
              std::string::npos)
        << err.what();
  }
#endif
}

TEST(Runtime, PlacementSpreadsOverNodes) {
  sim::Engine e;
  Runtime rt(e, small_config(8));  // 2 nodes -> 4 per node
  EXPECT_EQ(rt.ranks_per_node(), 4);
  EXPECT_EQ(rt.nodes_used(), 2);
  EXPECT_EQ(rt.node_of(0), 0);
  EXPECT_EQ(rt.node_of(3), 0);
  EXPECT_EQ(rt.node_of(4), 1);
}

TEST(Runtime, BarrierSynchronizesRanks) {
  sim::Engine e;
  Runtime rt(e, small_config(4));
  std::vector<sim::Time> after(4);
  rt.spmd([&after](Thread& t) -> sim::Task<void> {
    co_await t.compute(1e-6 * (t.rank() + 1));  // staggered work
    co_await t.barrier();
    after[static_cast<std::size_t>(t.rank())] = t.runtime().engine().now();
  });
  rt.run_to_completion();
  for (int r = 1; r < 4; ++r) EXPECT_EQ(after[0], after[static_cast<std::size_t>(r)]);
  EXPECT_GT(after[0], sim::from_seconds(4e-6));  // gated by slowest
}

TEST(Runtime, PutGetMovesRealData) {
  sim::Engine e;
  Runtime rt(e, small_config(4));
  auto arr = rt.heap().all_alloc<int>(4, 1);  // one element per rank
  rt.spmd([&arr](Thread& t) -> sim::Task<void> {
    // Everyone writes to the right neighbour's element, reads the left's.
    const int right = (t.rank() + 1) % t.threads();
    co_await t.put(arr.at(static_cast<std::size_t>(right)), 100 + t.rank());
    co_await t.barrier();
    const int left = (t.rank() + t.threads() - 1) % t.threads();
    const int got = co_await t.get(arr.at(static_cast<std::size_t>(t.rank())));
    EXPECT_EQ(got, 100 + left);
  });
  rt.run_to_completion();
}

TEST(Runtime, MemputAcrossNodesCopiesAndCharges) {
  sim::Engine e;
  Runtime rt(e, small_config(8));
  auto dst = rt.heap().alloc<double>(7, 1024);  // rank 7 on node 1
  std::vector<double> src(1024);
  std::iota(src.begin(), src.end(), 0.0);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      co_await t.copy(dst, src.data(), src.size());
    }
    co_return;
  });
  rt.run_to_completion();
  EXPECT_DOUBLE_EQ(dst.raw[1023], 1023.0);
  EXPECT_EQ(rt.network().total_messages(), 1u);
  EXPECT_GT(sim::to_seconds(e.now()), 1e-6);  // paid network time
}

TEST(Runtime, SupernodeCopySkipsNetwork) {
  sim::Engine e;
  Runtime rt(e, small_config(4, Backend::processes, true, 1));  // one node
  auto dst = rt.heap().alloc<int>(3, 64);
  std::vector<int> src(64, 42);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) co_await t.copy(dst, src.data(), src.size());
    co_return;
  });
  rt.run_to_completion();
  EXPECT_EQ(dst.raw[63], 42);
  EXPECT_EQ(rt.network().total_messages(), 0u);
}

TEST(Runtime, CastabilityFollowsSupernodeRules) {
  {
    sim::Engine e;
    Runtime rt(e, small_config(8, Backend::processes, /*pshm=*/true));
    rt.spmd([](Thread& t) -> sim::Task<void> {
      if (t.rank() == 0) {
        EXPECT_TRUE(t.castable(0));
        EXPECT_TRUE(t.castable(3));   // same node, PSHM maps it
        EXPECT_FALSE(t.castable(4));  // other node
      }
      co_return;
    });
    rt.run_to_completion();
  }
  {
    sim::Engine e;
    Runtime rt(e, small_config(8, Backend::processes, /*pshm=*/false));
    rt.spmd([](Thread& t) -> sim::Task<void> {
      if (t.rank() == 0) {
        EXPECT_TRUE(t.castable(0));
        EXPECT_FALSE(t.castable(3));  // no PSHM: separate address spaces
      }
      co_return;
    });
    rt.run_to_completion();
  }
}

TEST(Runtime, CastReturnsUsableRawPointer) {
  sim::Engine e;
  Runtime rt(e, small_config(4, Backend::processes, true, 1));
  auto arr = rt.heap().all_alloc<int>(4, 1);
  rt.spmd([&arr](Thread& t) -> sim::Task<void> {
    if (t.rank() == 1) {
      int* p = t.cast(arr.at(2));  // neighbour's element, same node
      EXPECT_NE(p, nullptr);       // (ASSERT_* returns; illegal in coroutines)
      if (p != nullptr) *p = 777;
    }
    co_return;
  });
  rt.run_to_completion();
  EXPECT_EQ(*arr.at(2).raw, 777);
}

TEST(Runtime, LoopbackSlowerThanPshm) {
  auto timed = [](bool pshm) {
    sim::Engine e;
    Runtime rt(e, small_config(4, Backend::processes, pshm, 1));
    auto dst = rt.heap().alloc<char>(3, 1 << 20);
    static std::vector<char> src(1 << 20, 'x');
    rt.spmd([&](Thread& t) -> sim::Task<void> {
      if (t.rank() == 0) co_await t.copy(dst, src.data(), src.size());
      co_return;
    });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  EXPECT_GT(timed(false), timed(true) * 1.2);
}

TEST(Runtime, PthreadsBackendSharesNodeConnection) {
  sim::Engine e;
  auto cfg = small_config(8, Backend::pthreads);
  Runtime rt(e, cfg);
  EXPECT_EQ(rt.network().mode(), net::ConnectionMode::per_node);
  EXPECT_TRUE(rt.same_supernode(0, 3));
}

TEST(Runtime, AsyncMemputOverlapsWithCompute) {
  sim::Engine e;
  Runtime rt(e, small_config(8));
  auto dst = rt.heap().alloc<char>(7, 1 << 20);
  static std::vector<char> src(1 << 20, 'y');
  sim::Time elapsed = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() != 0) co_return;
    auto put = t.launch_async(t.copy(dst, src.data(), src.size()));
    co_await t.compute(500e-6);  // overlap ~= transfer time
    co_await put.wait();
    elapsed = t.runtime().engine().now();
  });
  rt.run_to_completion();
  // 1 MiB over QDR ~ 0.68 ms; with 0.5 ms of overlapped compute, the total
  // must be far below the 1.18 ms serial sum.
  EXPECT_LT(sim::to_seconds(elapsed), 1.0e-3);
}

TEST(Runtime, SharedLoopPaysTranslationUnlessPrivatized) {
  auto timed = [](bool privatized) {
    sim::Engine e;
    // One node: shared_loop models intra-node loops (the partner's block
    // must live on this node).
    Runtime rt(e, small_config(2, Backend::processes, true, 1));
    rt.spmd([privatized](Thread& t) -> sim::Task<void> {
      co_await t.shared_loop(t.rank() ^ 1, 1'000'000, 24.0, privatized);
    });
    rt.run_to_completion();
    return sim::to_seconds(e.now());
  };
  const double baseline = timed(false);
  const double cast = timed(true);
  EXPECT_GT(baseline / cast, 3.0);  // Table 3.1: 3.2 vs 23.2 GB/s
}

TEST(GlobalLock, MutualExclusionAndCost) {
  sim::Engine e;
  Runtime rt(e, small_config(8));
  gas::GlobalLock lock(rt, 0);
  int counter = 0;
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await lock.acquire(t);
      const int saw = counter;
      co_await t.compute(1e-7);
      counter = saw + 1;  // lost updates would show without exclusion
      co_await lock.release(t);
    }
  });
  rt.run_to_completion();
  EXPECT_EQ(counter, 80);
}

TEST(GlobalLock, RemoteAcquireCostsMoreThanLocal) {
  auto timed = [](int locker) {
    sim::Engine e;
    Runtime rt(e, small_config(8));
    gas::GlobalLock lock(rt, 0);  // home: rank 0, node 0
    sim::Time t0 = 0;
    rt.spmd([&, locker](Thread& t) -> sim::Task<void> {
      if (t.rank() == locker) {
        co_await lock.acquire(t);
        co_await lock.release(t);
        t0 = t.runtime().engine().now();
      }
      co_return;
    });
    rt.run_to_completion();
    return sim::to_seconds(t0);
  };
  EXPECT_GT(timed(7) / timed(1), 5.0);  // cross-node RTT vs local atomic
}

TEST(GlobalLock, TryAcquireContention) {
  sim::Engine e;
  Runtime rt(e, small_config(2));
  gas::GlobalLock lock(rt, 0);
  std::vector<bool> got(2, false);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    if (t.rank() == 0) {
      got[0] = co_await lock.try_acquire(t);
      co_await t.barrier();  // hold across the peer's attempt
      co_await t.barrier();
      if (got[0]) co_await lock.release(t);
    } else {
      co_await t.barrier();
      got[1] = co_await lock.try_acquire(t);
      co_await t.barrier();
      if (got[1]) co_await lock.release(t);
    }
  });
  rt.run_to_completion();
  EXPECT_TRUE(got[0]);
  EXPECT_FALSE(got[1]);
}

}  // namespace
