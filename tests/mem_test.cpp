#include <gtest/gtest.h>

#include "mem/memory_system.hpp"
#include "sim/sim.hpp"
#include "topo/machine.hpp"
#include "topo/placement.hpp"
#include "toy_machine.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using mem::MemorySystem;
using topo::HwLoc;

TEST(MemorySystem, LocalStreamRunsAtSocketBandwidth) {
  sim::Engine e;
  const auto m = topo::lehman(1);
  MemorySystem mem(e, m);
  const HwLoc loc{0, 0, 0, 0};
  sim::Time done = 0;
  sim::spawn(e, [](sim::Engine& eng, MemorySystem& ms, HwLoc l,
                   sim::Time& d) -> sim::Task<void> {
    co_await ms.stream(l, l, 12.4e6);  // 1 ms at 12.4 GB/s
    d = eng.now();
  }(e, mem, loc, done));
  e.run();
  EXPECT_NEAR(sim::to_seconds(done), 1e-3, 1e-5);
}

TEST(MemorySystem, ContendedSocketSharesBandwidth) {
  sim::Engine e;
  const auto m = topo::lehman(1);
  MemorySystem mem(e, m);
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    const HwLoc loc{0, 0, i, 0};
    sim::spawn(e, [](MemorySystem& ms, HwLoc l, int& f) -> sim::Task<void> {
      co_await ms.stream(l, l, 12.4e6);
      ++f;
    }(mem, loc, finished));
  }
  e.run();
  EXPECT_EQ(finished, 4);
  // 4 streams of 1 ms each through one pool -> 4 ms total.
  EXPECT_NEAR(sim::to_seconds(e.now()), 4e-3, 1e-4);
}

TEST(MemorySystem, CrossSocketStreamsOccupyInterconnect) {
  sim::Engine e;
  const auto m = topo::lehman(1);
  MemorySystem mem(e, m);
  const HwLoc at{0, 1, 0, 0};    // context on socket 1
  const HwLoc home{0, 0, 0, 0};  // data on socket 0
  sim::spawn(e, [](MemorySystem& ms, HwLoc a, HwLoc h) -> sim::Task<void> {
    co_await ms.stream(a, h, 1e6);
  }(mem, at, home));
  e.run();
  // The data's home is socket 0, so its directional link carries the bytes.
  EXPECT_NEAR(mem.interconnect(0, 0).total_bytes(), 1e6, 1.0);
  EXPECT_NEAR(mem.interconnect(0, 1).total_bytes(), 0.0, 1.0);
  EXPECT_NEAR(mem.socket_pool(0, 0).total_bytes(), 1e6, 1.0);
  EXPECT_NEAR(mem.socket_pool(0, 1).total_bytes(), 0.0, 1.0);
}

TEST(MemorySystem, FineGrainedAccessPaysNumaPenalty) {
  const auto m = topo::lehman(1);
  auto run = [&](HwLoc at, HwLoc home) {
    sim::Engine e;
    MemorySystem mem(e, m);
    sim::spawn(e, [](MemorySystem& ms, HwLoc a, HwLoc h) -> sim::Task<void> {
      co_await ms.access(a, h, 1000, 8.0);
    }(mem, at, home));
    e.run();
    return sim::to_seconds(e.now());
  };
  const double local = run(HwLoc{0, 0, 0, 0}, HwLoc{0, 0, 0, 0});
  const double remote = run(HwLoc{0, 1, 0, 0}, HwLoc{0, 0, 0, 0});
  EXPECT_GT(remote, local * 1.2);  // numa_penalty = 1.3 on the latency term
  EXPECT_LT(remote, local * 1.4);
}

TEST(MemorySystem, ComputeScalesWithSpeedFactor) {
  sim::Engine e;
  const auto m = topo::lehman(1);
  MemorySystem mem(e, m);
  topo::SlotAllocator slots(m);
  const HwLoc a{0, 0, 0, 0}, b{0, 0, 0, 1};
  slots.bind(a);
  slots.bind(b);  // SMT sibling active -> factor = 1.22/2 = 0.61
  sim::spawn(e, [](MemorySystem& ms, topo::SlotAllocator& sl,
                   HwLoc l) -> sim::Task<void> {
    co_await ms.compute(sl, l, 1e-3);
  }(mem, slots, a));
  e.run();
  EXPECT_NEAR(sim::to_seconds(e.now()), 1e-3 / 0.61, 1e-6);
}

TEST(MemorySystem, ComputeFlopsUsesCorePeak) {
  sim::Engine e;
  const auto m = test::toy_machine(1);  // 1 GHz, 1 flop/cycle
  MemorySystem mem(e, m);
  topo::SlotAllocator slots(m);
  const HwLoc loc{0, 0, 0, 0};
  slots.bind(loc);
  sim::spawn(e, [](MemorySystem& ms, topo::SlotAllocator& sl,
                   HwLoc l) -> sim::Task<void> {
    co_await ms.compute_flops(sl, l, 1e6, 0.5);  // 1 Mflop at 50% of 1 GF/s
  }(mem, slots, loc));
  e.run();
  EXPECT_NEAR(sim::to_seconds(e.now()), 2e-3, 1e-6);
}

}  // namespace
