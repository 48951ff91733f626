// Cross-algorithm equivalence harness (ISSUE 7's headline deliverable).
//
// Every shipped (operation x algorithm) cell of gas::Collectives runs
// against the FLAT reference algorithm as oracle, across team shapes
// (whole-runtime, single-node, spanning-uneven, key-ordered/unsorted,
// singleton) and payload sizes straddling the selector's crossovers. The
// assertion is BIT-IDENTITY of the operation's result region: every
// algorithm moves the same bytes to the same final slots, and for reduce
// the combine order is pinned (ascending member index at every level) so
// exact combiners agree across trees.
//
// Golden-determinism cases run each cell twice in fresh engines and demand
// bit-identical results AND identical gas.*/net.* counter totals — the
// deterministic-simulation contract extended to every algorithm.
//
// Also here: the per-(team, op) matching regressions (overlapping teams
// with interleaved broadcasts; one team pipelining different operation
// kinds), selector policy units, and CLI parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "gas/gas.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using gas::CollAlgo;
using gas::Collectives;
using gas::CollOp;
using gas::Config;
using gas::GlobalPtr;
using gas::Runtime;
using gas::Thread;

constexpr int kThreads = 16;  // over lehman(4): 4 ranks per node

// Deterministic payload: a function of member index and element only.
std::int64_t pattern(int member, std::size_t i) {
  return static_cast<std::int64_t>(member + 1) * 1000003 +
         static_cast<std::int64_t>(i) * 7919;
}

struct Cell {
  CollOp op;
  CollAlgo algo;
  std::vector<int> members;
  std::size_t count;
};

// Counters whose totals must be bit-identical across reruns of a cell.
const std::vector<std::string>& watched_counters() {
  static const std::vector<std::string> kCounters = {
      "gas.coll.broadcast", "gas.coll.reduce",   "gas.coll.gather",
      "gas.coll.allgather", "gas.coll.alltoall", "gas.copy.rma",
      "gas.copy.shm",       "gas.copy.loopback", "gas.barrier",
      "net.msg",            "net.bytes",         "net.delivered",
  };
  return kCounters;
}

struct CellResult {
  std::vector<std::int64_t> result;      // op-defined result region, flattened
  std::vector<std::uint64_t> counters;   // watched_counters() totals
};

/// Run one (op, algo, team, count) cell in a fresh engine and return the
/// operation's RESULT region (not internal staging, which legitimately
/// differs between algorithms) plus the watched counter totals.
CellResult run_cell(const Cell& cell) {
  sim::Engine e;
  Config cfg;
  cfg.machine = topo::lehman(4);
  cfg.threads = kThreads;
  Runtime rt(e, cfg);
  Collectives coll(rt, cell.members);
  const int n = coll.size();
  const std::size_t count = cell.count;
  const std::size_t full = static_cast<std::size_t>(n) * count;
  const int root = n > 1 ? n / 2 : 0;

  // Buffers per the op contract; reduce/gather give the root the full
  // staging extent, allgather/alltoall give everyone `full`.
  std::vector<GlobalPtr<std::int64_t>> bufs;
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    std::size_t elems = count;
    if (cell.op == CollOp::allgather || cell.op == CollOp::alltoall) {
      elems = full;
    } else if (m == root &&
               (cell.op == CollOp::reduce || cell.op == CollOp::gather)) {
      elems = full;
    }
    bufs.push_back(rt.heap().alloc<std::int64_t>(cell.members[static_cast<std::size_t>(m)], elems));
    for (std::size_t i = 0; i < elems; ++i) bufs.back().raw[i] = 0;
    switch (cell.op) {
      case CollOp::broadcast:
        if (m == root) {
          for (std::size_t i = 0; i < count; ++i) {
            bufs.back().raw[i] = pattern(m, i);
          }
        }
        break;
      case CollOp::reduce:
      case CollOp::gather:
        for (std::size_t i = 0; i < count; ++i) {
          bufs.back().raw[i] = pattern(m, i);
        }
        break;
      case CollOp::allgather:
        for (std::size_t i = 0; i < count; ++i) {
          bufs.back().raw[static_cast<std::size_t>(m) * count + i] =
              pattern(m, i);
        }
        break;
      case CollOp::alltoall:
        send[static_cast<std::size_t>(m)].resize(full);
        for (int p = 0; p < n; ++p) {
          for (std::size_t i = 0; i < count; ++i) {
            send[static_cast<std::size_t>(m)][static_cast<std::size_t>(p) * count + i] =
                pattern(m, i) + p * 31;
          }
        }
        break;
    }
  }

  const auto sum = [](std::int64_t a, std::int64_t b) { return a + b; };
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    const int me = coll.index_of(t.rank());
    if (me < 0) co_return;  // non-members sit the collective out
    switch (cell.op) {
      case CollOp::broadcast:
        co_await coll.broadcast(t, bufs, count, root, cell.algo);
        break;
      case CollOp::reduce:
        co_await coll.reduce(t, bufs, count, root, sum, cell.algo);
        break;
      case CollOp::gather:
        co_await coll.gather(t, bufs, count, root);
        break;
      case CollOp::allgather:
        co_await coll.allgather(t, bufs, count, cell.algo);
        break;
      case CollOp::alltoall:
        co_await coll.exchange(t, bufs,
                               send[static_cast<std::size_t>(me)].data(),
                               count, /*overlap=*/false, cell.algo);
        break;
    }
  });
  rt.run_to_completion();

  CellResult out;
  switch (cell.op) {
    case CollOp::broadcast:
      for (int m = 0; m < n; ++m) {
        for (std::size_t i = 0; i < count; ++i) {
          out.result.push_back(bufs[static_cast<std::size_t>(m)].raw[i]);
        }
      }
      break;
    case CollOp::reduce:
      for (std::size_t i = 0; i < count; ++i) {
        out.result.push_back(bufs[static_cast<std::size_t>(root)].raw[i]);
      }
      break;
    case CollOp::gather:
      for (std::size_t i = 0; i < full; ++i) {
        out.result.push_back(bufs[static_cast<std::size_t>(root)].raw[i]);
      }
      break;
    case CollOp::allgather:
    case CollOp::alltoall:
      for (int m = 0; m < n; ++m) {
        for (std::size_t i = 0; i < full; ++i) {
          out.result.push_back(bufs[static_cast<std::size_t>(m)].raw[i]);
        }
      }
      break;
  }
  for (const auto& name : watched_counters()) {
    out.counters.push_back(rt.counters().total(name));
  }
  return out;
}

// Team shapes over 16 ranks on lehman(4) — 4 ranks per node.
struct Shape {
  const char* name;
  std::vector<int> members;
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {
      {"world", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
      {"single_node", {0, 1, 2, 3}},
      {"spanning_uneven", {1, 2, 6, 9, 13}},   // node sizes 2/1/1/1
      {"key_ordered", {6, 2, 11, 3}},          // unsorted member order
      {"singleton", {5}},
  };
  return kShapes;
}

// The shipped non-flat cells of the (operation x algorithm) table — flat
// itself is the oracle. coll_algo_supported() is the source of truth; the
// explicit list keeps each cell visible in test output.
const std::vector<std::pair<CollOp, CollAlgo>>& non_flat_cells() {
  static const std::vector<std::pair<CollOp, CollAlgo>> kCells = {
      {CollOp::broadcast, CollAlgo::hier},
      {CollOp::reduce, CollAlgo::hier},
      {CollOp::allgather, CollAlgo::ring},
      {CollOp::allgather, CollAlgo::dissem},
      {CollOp::alltoall, CollAlgo::hier},
  };
  return kCells;
}

TEST(CollAlgoTable, EveryShippedCellIsCovered) {
  // If a new (op, algo) cell ships, this harness must grow with it.
  for (int op = 0; op < gas::kCollOpKinds; ++op) {
    for (CollAlgo a : {CollAlgo::hier, CollAlgo::ring, CollAlgo::dissem}) {
      const bool shipped =
          gas::coll_algo_supported(static_cast<CollOp>(op), a);
      bool covered = false;
      for (const auto& [cop, calgo] : non_flat_cells()) {
        covered |= cop == static_cast<CollOp>(op) && calgo == a;
      }
      EXPECT_EQ(shipped, covered)
          << gas::coll_op_name(static_cast<CollOp>(op)) << " x "
          << gas::coll_algo_name(a);
    }
    EXPECT_TRUE(
        gas::coll_algo_supported(static_cast<CollOp>(op), CollAlgo::flat));
  }
}

class EquivalenceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EquivalenceSweep, EveryAlgorithmMatchesFlatOracle) {
  const std::size_t count = GetParam();
  for (const auto& shape : shapes()) {
    for (const auto& [op, algo] : non_flat_cells()) {
      const Cell oracle{op, CollAlgo::flat, shape.members, count};
      const Cell cell{op, algo, shape.members, count};
      const auto expected = run_cell(oracle);
      const auto got = run_cell(cell);
      EXPECT_EQ(got.result, expected.result)
          << shape.name << " " << gas::coll_op_name(op) << " "
          << gas::coll_algo_name(algo) << " count " << count;
    }
  }
}

// 8 B (latency regime), ~1.5 KiB, and 4.8 KiB — the last crosses the
// selector's 4 KiB dissemination/ring allgather boundary.
INSTANTIATE_TEST_SUITE_P(Payloads, EquivalenceSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{9},
                                           std::size_t{600}));

TEST(CollAlgoGolden, RerunsAreBitIdenticalIncludingCounters) {
  for (const auto& shape : shapes()) {
    for (const auto& [op, algo] : non_flat_cells()) {
      const Cell cell{op, algo, shape.members, 9};
      const auto a = run_cell(cell);
      const auto b = run_cell(cell);
      EXPECT_EQ(a.result, b.result)
          << shape.name << " " << gas::coll_op_name(op) << " "
          << gas::coll_algo_name(algo);
      EXPECT_EQ(a.counters, b.counters)
          << shape.name << " " << gas::coll_op_name(op) << " "
          << gas::coll_algo_name(algo);
    }
  }
}

TEST(CollAlgoGolden, CollectiveCallCountersAreConserved) {
  // Every member counts its call exactly once, whatever the algorithm.
  for (CollAlgo algo : {CollAlgo::flat, CollAlgo::hier}) {
    const Cell cell{CollOp::alltoall, algo,
                    shapes()[0].members, 9};
    const auto r = run_cell(cell);
    EXPECT_EQ(r.counters[4], static_cast<std::uint64_t>(kThreads))
        << "gas.coll.alltoall under " << gas::coll_algo_name(algo);
  }
}

TEST(CollAlgoSelector, PolicyTable) {
  gas::CollectiveSelector sel;
  // alltoall: hier only when spanning, populous, and latency-dominated.
  EXPECT_EQ(sel.choose(CollOp::alltoall, 64, 16, true), CollAlgo::hier);
  EXPECT_EQ(sel.choose(CollOp::alltoall, 64, 16, false), CollAlgo::flat);
  EXPECT_EQ(sel.choose(CollOp::alltoall, 64, 2, true), CollAlgo::flat);
  EXPECT_EQ(sel.choose(CollOp::alltoall, 1 << 20, 16, true), CollAlgo::flat);
  // broadcast/reduce: hier whenever spanning and populous.
  EXPECT_EQ(sel.choose(CollOp::broadcast, 1 << 20, 16, true), CollAlgo::hier);
  EXPECT_EQ(sel.choose(CollOp::reduce, 8, 16, true), CollAlgo::hier);
  EXPECT_EQ(sel.choose(CollOp::broadcast, 8, 16, false), CollAlgo::flat);
  // allgather: dissemination small, ring large, flat tiny teams.
  EXPECT_EQ(sel.choose(CollOp::allgather, 512, 16, true), CollAlgo::dissem);
  EXPECT_EQ(sel.choose(CollOp::allgather, 1 << 20, 16, true), CollAlgo::ring);
  EXPECT_EQ(sel.choose(CollOp::allgather, 512, 2, true), CollAlgo::flat);
  EXPECT_EQ(sel.choose(CollOp::gather, 512, 16, true), CollAlgo::flat);
  // Pinned algorithm wins; unsupported pins fall back to flat.
  sel.override_algo = CollAlgo::ring;
  EXPECT_EQ(sel.choose(CollOp::allgather, 8, 16, true), CollAlgo::ring);
  EXPECT_EQ(sel.choose(CollOp::reduce, 8, 16, true), CollAlgo::flat);
}

TEST(CollAlgoSelector, ParseAndNames) {
  EXPECT_EQ(gas::parse_coll_algo("auto"), CollAlgo::automatic);
  EXPECT_EQ(gas::parse_coll_algo("flat"), CollAlgo::flat);
  EXPECT_EQ(gas::parse_coll_algo("hier"), CollAlgo::hier);
  EXPECT_EQ(gas::parse_coll_algo("ring"), CollAlgo::ring);
  EXPECT_EQ(gas::parse_coll_algo("dissem"), CollAlgo::dissem);
  EXPECT_FALSE(gas::parse_coll_algo("").has_value());
  EXPECT_FALSE(gas::parse_coll_algo("Flat").has_value());
  EXPECT_FALSE(gas::parse_coll_algo("binomial").has_value());
  for (CollAlgo a : {CollAlgo::automatic, CollAlgo::flat, CollAlgo::hier,
                     CollAlgo::ring, CollAlgo::dissem}) {
    EXPECT_EQ(gas::parse_coll_algo(gas::coll_algo_name(a)), a);
  }
}

TEST(CollAlgoSelector, ExplicitUnsupportedAlgorithmThrows) {
  sim::Engine e;
  Config cfg;
  cfg.machine = topo::lehman(2);
  cfg.threads = 8;
  Runtime rt(e, cfg);
  Collectives coll(rt);
  // Pinning ring onto reduce at the CALL is a programming error (the
  // selector-level override falls back instead; see PolicyTable above).
  EXPECT_THROW((void)coll.resolve(CollOp::reduce, 8, CollAlgo::ring),
               std::invalid_argument);
  EXPECT_THROW((void)coll.resolve(CollOp::alltoall, 8, CollAlgo::dissem),
               std::invalid_argument);
  EXPECT_EQ(coll.resolve(CollOp::reduce, 8, CollAlgo::hier), CollAlgo::hier);
}

// --- per-(team, op) matching regressions ------------------------------

TEST(CollMatching, OverlappingTeamsInterleaveBroadcasts) {
  // Teams A = {0..7} and B = {4..11} share ranks 4..7. Shared ranks issue
  // A's and B's broadcasts back-to-back; with per-(team, op) sequence
  // matching the two teams' states can never pair up, whatever the
  // interleaving the scheduler picks.
  sim::Engine e;
  Config cfg;
  cfg.machine = topo::lehman(4);
  cfg.threads = kThreads;
  Runtime rt(e, cfg);
  Collectives team_a(rt, {0, 1, 2, 3, 4, 5, 6, 7});
  Collectives team_b(rt, {4, 5, 6, 7, 8, 9, 10, 11});
  const std::size_t count = 8;
  std::vector<GlobalPtr<std::int64_t>> bufs_a, bufs_b;
  for (int m = 0; m < 8; ++m) {
    bufs_a.push_back(rt.heap().alloc<std::int64_t>(m, count));
    bufs_b.push_back(rt.heap().alloc<std::int64_t>(m + 4, count));
  }
  for (std::size_t i = 0; i < count; ++i) {
    bufs_a[0].raw[i] = 111000 + static_cast<std::int64_t>(i);  // A root = 0
    bufs_b[7].raw[i] = 222000 + static_cast<std::int64_t>(i);  // B root = 11
  }
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    const int r = t.rank();
    // Two rounds each, interleaved A/B on the shared ranks.
    for (int round = 0; round < 2; ++round) {
      if (r <= 7) co_await team_a.broadcast(t, bufs_a, count, 0);
      if (r >= 4 && r <= 11) co_await team_b.broadcast(t, bufs_b, count, 7);
    }
  });
  rt.run_to_completion();
  for (int m = 0; m < 8; ++m) {
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(bufs_a[static_cast<std::size_t>(m)].raw[i],
                111000 + static_cast<std::int64_t>(i))
          << "team A member " << m;
      EXPECT_EQ(bufs_b[static_cast<std::size_t>(m)].raw[i],
                222000 + static_cast<std::int64_t>(i))
          << "team B member " << m;
    }
  }
}

TEST(CollMatching, OneTeamPipelinesDifferentOperationKinds) {
  // A single team issues broadcast, reduce, allgather and alltoall
  // back-to-back without intervening barriers. Per-(team, op) sequence
  // keys keep each operation's state to itself even while several are in
  // flight; a shared per-member counter would cross-match them.
  sim::Engine e;
  Config cfg;
  cfg.machine = topo::lehman(2);
  cfg.threads = 8;
  Runtime rt(e, cfg);
  Collectives coll(rt);
  const int n = 8;
  const std::size_t count = 4;
  const std::size_t full = static_cast<std::size_t>(n) * count;
  std::vector<GlobalPtr<std::int64_t>> bc, rd, ag, recv;
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    bc.push_back(rt.heap().alloc<std::int64_t>(m, count));
    rd.push_back(rt.heap().alloc<std::int64_t>(m, m == 0 ? full : count));
    ag.push_back(rt.heap().alloc<std::int64_t>(m, full));
    recv.push_back(rt.heap().alloc<std::int64_t>(m, full));
    for (std::size_t i = 0; i < count; ++i) {
      if (m == 0) bc[0].raw[i] = pattern(0, i);
      rd.back().raw[i] = pattern(m, i);
      ag.back().raw[static_cast<std::size_t>(m) * count + i] = pattern(m, i);
    }
    send[static_cast<std::size_t>(m)].resize(full);
    for (std::size_t i = 0; i < full; ++i) {
      send[static_cast<std::size_t>(m)][i] =
          pattern(m, i) + 13;
    }
  }
  const auto sum = [](std::int64_t a, std::int64_t b) { return a + b; };
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    co_await coll.broadcast(t, bc, count, 0);
    co_await coll.reduce(t, rd, count, 0, sum);
    co_await coll.allgather(t, ag, count);
    co_await coll.exchange(t, recv,
                           send[static_cast<std::size_t>(t.rank())].data(),
                           count);
  });
  rt.run_to_completion();
  for (int m = 0; m < n; ++m) {
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(bc[static_cast<std::size_t>(m)].raw[i], pattern(0, i));
    }
    for (int p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(ag[static_cast<std::size_t>(m)]
                      .raw[static_cast<std::size_t>(p) * count + i],
                  pattern(p, i));
        EXPECT_EQ(recv[static_cast<std::size_t>(m)]
                      .raw[static_cast<std::size_t>(p) * count + i],
                  pattern(p, static_cast<std::size_t>(m) * count + i) + 13);
      }
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::int64_t expected = 0;
    for (int m = 0; m < n; ++m) expected += pattern(m, i);
    EXPECT_EQ(rd[0].raw[i], expected);
  }
}

TEST(CollAllreduceValue, AgreesAcrossAlgorithmsAndShapes) {
  for (const auto& shape : shapes()) {
    for (CollAlgo algo : {CollAlgo::automatic, CollAlgo::flat, CollAlgo::hier}) {
      sim::Engine e;
      Config cfg;
      cfg.machine = topo::lehman(4);
      cfg.threads = kThreads;
      Runtime rt(e, cfg);
      Collectives coll(rt, shape.members);
      std::vector<std::int64_t> got(static_cast<std::size_t>(kThreads), -1);
      rt.spmd([&](Thread& t) -> sim::Task<void> {
        const int me = coll.index_of(t.rank());
        if (me < 0) co_return;
        got[static_cast<std::size_t>(t.rank())] =
            co_await coll.allreduce_value(
                t, pattern(me, 0),
                [](std::int64_t a, std::int64_t b) { return a + b; }, algo);
      });
      rt.run_to_completion();
      std::int64_t expected = 0;
      for (int m = 0; m < coll.size(); ++m) expected += pattern(m, 0);
      for (int m = 0; m < coll.size(); ++m) {
        EXPECT_EQ(got[static_cast<std::size_t>(shape.members[static_cast<std::size_t>(m)])],
                  expected)
            << shape.name << " " << gas::coll_algo_name(algo);
      }
    }
  }
}

TEST(CollTeamIntegration, SplitSubteamsRunHierCollectives) {
  // Team::split -> subteam collectives end-to-end: split the world by
  // node, give each subteam its own broadcast, then a spanning leaders
  // team reduces across nodes — the two-level composition the hier
  // algorithms package internally.
  sim::Engine e;
  Config cfg;
  cfg.machine = topo::lehman(4);
  cfg.threads = kThreads;
  Runtime rt(e, cfg);
  core::Team world(rt);
  auto subteams = world.split_by_node();
  ASSERT_EQ(subteams.size(), 4u);
  core::Team leaders = world.leader_team();
  ASSERT_EQ(leaders.size(), 4);
  std::vector<std::int64_t> node_total(4, -1);
  rt.spmd([&](Thread& t) -> sim::Task<void> {
    const int node = t.runtime().node_of(t.rank());
    auto& sub = subteams[static_cast<std::size_t>(node)];
    // Subteam allreduce of each member's rank, then leaders sum the
    // per-node totals across nodes.
    const auto mine = static_cast<std::int64_t>(t.rank());
    const auto sub_total = co_await sub.allreduce_value(
        t, mine, [](std::int64_t a, std::int64_t b) { return a + b; });
    if (leaders.contains(t.rank())) {
      node_total[static_cast<std::size_t>(node)] =
          co_await leaders.allreduce_value(
              t, sub_total,
              [](std::int64_t a, std::int64_t b) { return a + b; });
    }
  });
  rt.run_to_completion();
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(node_total[static_cast<std::size_t>(n)],
              kThreads * (kThreads - 1) / 2);
  }
}

}  // namespace
