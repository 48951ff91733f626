#include <gtest/gtest.h>

#include <vector>

#include "net/conduit.hpp"
#include "net/network.hpp"
#include "sim/sim.hpp"
#include "topo/machine.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience
using net::ConnectionMode;
using net::Network;

double run_single_message(net::ConduitSpec conduit, double bytes) {
  sim::Engine e;
  const auto m = topo::lehman(2);
  Network nw(e, m, conduit, ConnectionMode::per_process, 8);
  sim::spawn(e, [](Network& n, double b) -> sim::Task<void> {
    co_await n.rma({.src_node = 0, .src_ep = 0, .dst_node = 1, .bytes = b});
  }(nw, bytes));
  e.run();
  return sim::to_seconds(e.now());
}

TEST(Network, SmallMessageCostIsOverheadPlusLatency) {
  const auto c = net::ib_qdr();
  const double t = run_single_message(c, 8.0);
  const double expected = c.api_overhead_process_s + c.send_overhead_s +
                          8.0 / c.stage_bw + 8.0 / c.conn_bw + c.latency_s +
                          c.recv_overhead_s;
  EXPECT_NEAR(t, expected, 1e-8);
}

TEST(Network, LargeMessageIsBandwidthBound) {
  const auto c = net::ib_qdr();
  const double t = run_single_message(c, 16e6);  // 16 MB
  // Dominated by per-flow cap: 16 MB / 1.55 GB/s ~ 10.3 ms.
  EXPECT_NEAR(t, 16e6 / c.conn_bw, 1e-3);
}

TEST(Network, GigeIsFarSlowerThanIb) {
  const double ib = run_single_message(net::ib_qdr(), 4096);
  const double eth = run_single_message(net::gige(), 4096);
  EXPECT_GT(eth / ib, 10.0);
}

double run_flood(ConnectionMode mode, int links, double bytes_each) {
  sim::Engine e;
  const auto m = topo::lehman(2);
  Network nw(e, m, net::ib_qdr(), mode, 8);
  for (int i = 0; i < links; ++i) {
    sim::spawn(e, [](Network& n, int ep, double b) -> sim::Task<void> {
      co_await n.rma({.src_node = 0, .src_ep = ep, .dst_node = 1, .bytes = b});
    }(nw, i, bytes_each));
  }
  e.run();
  return sim::to_seconds(e.now());
}

TEST(Network, OneFlowCappedByConnectionBandwidth) {
  const double t = run_flood(ConnectionMode::per_process, 1, 155e6);
  // 155 MB at 1.55 GB/s = 100 ms even though the NIC could do 2.45.
  EXPECT_NEAR(t, 0.1, 2e-3);
}

TEST(Network, MultipleFlowsReachNicAggregate) {
  const double t = run_flood(ConnectionMode::per_process, 4, 155e6);
  // 620 MB total at NIC 2.45 GB/s ~ 0.253 s (well below 4 x 0.1 serial).
  EXPECT_NEAR(t, 620e6 / 2.45e9, 5e-3);
}

TEST(Network, SharedConnectionSerializesInjection) {
  // 8 threads flooding 512 KB each: per_node mode serializes the staging
  // copies through one connection; per_process does them in parallel.
  const double shared = run_flood(ConnectionMode::per_node, 8, 512e3);
  const double independent = run_flood(ConnectionMode::per_process, 8, 512e3);
  EXPECT_GT(shared, independent);
}

TEST(Network, CountersTrackMessagesAndBytes) {
  sim::Engine e;
  const auto m = topo::lehman(3);
  Network nw(e, m, net::ib_qdr(), ConnectionMode::per_process, 8);
  sim::spawn(e, [](Network& n) -> sim::Task<void> {
    co_await n.rma({.src_node = 0, .src_ep = 0, .dst_node = 1, .bytes = 100.0});
    co_await n.rma({.src_node = 0, .src_ep = 1, .dst_node = 2, .bytes = 200.0});
    co_await n.rma({.src_node = 1, .src_ep = 0, .dst_node = 2, .bytes = 300.0});
  }(nw));
  e.run();
  EXPECT_EQ(nw.total_messages(), 3u);
  EXPECT_DOUBLE_EQ(nw.total_bytes(), 600.0);
  // Without a placement table the counters attribute endpoint (node, ep)
  // to rank node * 8 + ep (blockwise placement).
  EXPECT_EQ(nw.counters().get("net.msg", 0), 1u);
  EXPECT_EQ(nw.counters().get("net.msg", 1), 1u);
  EXPECT_EQ(nw.counters().get("net.bytes", 8), 300u);
  EXPECT_EQ(nw.counters().total("net.delivered"), 3u);
}

TEST(Network, AsyncRmaOverlaps) {
  sim::Engine e;
  const auto m = topo::lehman(2);
  Network nw(e, m, net::ib_qdr(), ConnectionMode::per_process, 8);
  sim::Time done = 0;
  sim::spawn(e, [](sim::Engine& eng, Network& n, sim::Time& d) -> sim::Task<void> {
    // Two async transfers from different endpoints overlap on the wire.
    auto f1 = sim::spawn(eng, n.rma({.src_node = 0, .src_ep = 0,
                                     .dst_node = 1, .bytes = 155e6}));
    auto f2 = sim::spawn(eng, n.rma({.src_node = 0, .src_ep = 1,
                                     .dst_node = 1, .bytes = 155e6}));
    co_await f1.wait();
    co_await f2.wait();
    d = eng.now();
  }(e, nw, done));
  e.run();
  // 310 MB at NIC 2.45 GB/s ~ 0.127 s; serial at conn cap would be 0.2 s.
  EXPECT_LT(sim::to_seconds(done), 0.15);
}

}  // namespace
