#include <gtest/gtest.h>

#include <stdexcept>

#include "topo/machine.hpp"
#include "topo/placement.hpp"
#include "toy_machine.hpp"

namespace {

using namespace hupc::topo;  // NOLINT: test-local convenience

TEST(MachineSpec, PresetsByNameCarryTheirNetwork) {
  const MachinePreset pyramid_preset = machine_preset("pyramid", 4);
  EXPECT_EQ(pyramid_preset.spec.name, "pyramid");
  EXPECT_EQ(pyramid_preset.spec.nodes, 4);
  EXPECT_STREQ(pyramid_preset.conduit, "ib-ddr");
  const MachinePreset lehman_preset = machine_preset("lehman", 2);
  EXPECT_EQ(lehman_preset.spec.name, "lehman");
  EXPECT_STREQ(lehman_preset.conduit, "ib-qdr");
  try {
    (void)machine_preset("cray", 1);
    ADD_FAILURE() << "an unknown preset must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown machine preset 'cray' (known: lehman, pyramid)");
  }
}

TEST(MachineSpec, LehmanMatchesThesisTable21) {
  const MachineSpec m = lehman();
  EXPECT_EQ(m.nodes, 12);
  EXPECT_EQ(m.sockets_per_node, 2);
  EXPECT_EQ(m.cores_per_socket, 4);
  EXPECT_EQ(m.smt_per_core, 2);
  EXPECT_EQ(m.cores_per_node(), 8);
  EXPECT_EQ(m.hwthreads_per_node(), 16);
  EXPECT_NEAR(m.clock_ghz, 2.27, 1e-9);
  // Peak per node ~72 GFLOPS (thesis Table 2.1).
  EXPECT_NEAR(m.core_flops() * m.cores_per_node() / 1e9, 72.0, 1.0);
}

TEST(MachineSpec, PyramidMatchesThesisTable21) {
  const MachineSpec m = pyramid();
  EXPECT_EQ(m.nodes, 128);
  EXPECT_EQ(m.smt_per_core, 1);
  EXPECT_EQ(m.hwthreads_per_node(), 8);
  EXPECT_NEAR(m.core_flops() * m.cores_per_node() / 1e9, 70.4, 1.0);
}

TEST(HwLoc, SharedLevelAndDistance) {
  const HwLoc a{0, 0, 0, 0};
  EXPECT_EQ(shared_level(a, HwLoc{0, 0, 0, 0}), Level::hwthread);
  EXPECT_EQ(shared_level(a, HwLoc{0, 0, 0, 1}), Level::core);
  EXPECT_EQ(shared_level(a, HwLoc{0, 0, 1, 0}), Level::socket);
  EXPECT_EQ(shared_level(a, HwLoc{0, 1, 0, 0}), Level::node);
  EXPECT_EQ(shared_level(a, HwLoc{1, 0, 0, 0}), Level::machine);
  EXPECT_EQ(distance(a, HwLoc{1, 0, 0, 0}), 4);
  EXPECT_EQ(distance(a, a), 0);
}

TEST(Placement, BlockwiseAcrossNodes) {
  const MachineSpec m = lehman(4);
  const auto p = place_ranks(m, 8, Placement::cyclic_socket);
  ASSERT_EQ(p.size(), 8u);
  // 2 ranks per node.
  for (int r = 0; r < 8; ++r) EXPECT_EQ(p[static_cast<std::size_t>(r)].node, r / 2);
}

TEST(Placement, CyclicSocketAlternatesSockets) {
  const MachineSpec m = lehman(1);
  const auto p = place_ranks(m, 4, Placement::cyclic_socket);
  EXPECT_EQ(p[0].socket, 0);
  EXPECT_EQ(p[1].socket, 1);
  EXPECT_EQ(p[2].socket, 0);
  EXPECT_EQ(p[3].socket, 1);
  // Distinct cores before SMT siblings.
  EXPECT_EQ(p[0].core, 0);
  EXPECT_EQ(p[2].core, 1);
  EXPECT_EQ(p[0].smt, 0);
}

TEST(Placement, CompactFillsSocketZeroFirst) {
  const MachineSpec m = lehman(1);
  const auto p = place_ranks(m, 8, Placement::compact);
  // 8 hwthread slots on socket 0 (4 cores x SMT2) fill before socket 1.
  for (const auto& loc : p) EXPECT_EQ(loc.socket, 0);
}

TEST(Placement, OversubscriptionWrapsSlots) {
  const MachineSpec m = hupc::test::toy_machine(1);  // 2 hwthreads per node
  const auto p = place_ranks(m, 6, Placement::block);
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p[0], p[2]);
  EXPECT_EQ(p[0], p[4]);
  EXPECT_EQ(p[1], p[3]);
}

TEST(Placement, FullLehmanSmtPlacementUsesAllSlots) {
  const MachineSpec m = lehman(8);
  const auto p = place_ranks(m, 128, Placement::cyclic_socket);  // 16/node
  SlotAllocator slots(m);
  for (const auto& loc : p) slots.bind(loc);
  for (int node = 0; node < 8; ++node) {
    EXPECT_EQ(slots.contexts_on_socket(node, 0), 8);
    EXPECT_EQ(slots.contexts_on_socket(node, 1), 8);
  }
}

TEST(SlotAllocator, SpeedFactorReflectsSmtSharing) {
  const MachineSpec m = lehman(1);
  SlotAllocator slots(m);
  const HwLoc a{0, 0, 0, 0}, b{0, 0, 0, 1};
  slots.bind(a);
  EXPECT_DOUBLE_EQ(slots.speed_factor(a), 1.0);
  slots.bind(b);  // SMT sibling
  EXPECT_DOUBLE_EQ(slots.speed_factor(a), m.smt_throughput / 2.0);
  slots.unbind(b);
  EXPECT_DOUBLE_EQ(slots.speed_factor(a), 1.0);
}

TEST(SlotAllocator, OversubscribedCoreTimeSlices) {
  const MachineSpec m = hupc::test::toy_machine(1);  // no SMT
  SlotAllocator slots(m);
  const HwLoc a{0, 0, 0, 0};
  slots.bind(a);
  slots.bind(a);
  slots.bind(a);
  EXPECT_DOUBLE_EQ(slots.speed_factor(a), 1.0 / 3.0);
}

TEST(SlotAllocator, AllocateNearPrefersEmptyCores) {
  const MachineSpec m = lehman(1);
  SlotAllocator slots(m);
  const HwLoc master{0, 1, 0, 0};
  slots.bind(master);
  const HwLoc s1 = slots.allocate_near(master);
  EXPECT_EQ(s1.socket, 1);   // stays on master's socket
  EXPECT_NE(s1.core, 0);     // prefers an empty core over the SMT sibling
  EXPECT_EQ(s1.smt, 0);
  // Fill all 4 cores; next allocation must take an SMT sibling.
  (void)slots.allocate_near(master);
  (void)slots.allocate_near(master);
  const HwLoc s4 = slots.allocate_near(master);
  EXPECT_EQ(s4.smt, 1);
}

TEST(SlotAllocator, AllocateNearIsDeterministic) {
  const MachineSpec m = lehman(1);
  SlotAllocator x(m), y(m);
  const HwLoc master{0, 0, 0, 0};
  x.bind(master);
  y.bind(master);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(x.allocate_near(master), y.allocate_near(master));
  }
}

}  // namespace
