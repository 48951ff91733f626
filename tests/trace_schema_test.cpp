// Chrome-trace exporter schema conformance, validated with the tests' JSON
// reader (test::JsonValue::parse): the exported document must
// parse, every timestamp must be non-negative, pid/tid must
// map to node/rank, and B/E events must balance per thread lane — also
// after the ring has wrapped and dropped a prefix of the stream.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gas/gas.hpp"
#include "json_reader.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"
#include "uts/tree.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience

using test::JsonValue;

// --- workload that populates a tracer -------------------------------------

std::uint64_t run_uts(trace::Tracer* tracer) {
  uts::TreeParams tree;
  tree.b0 = 200;
  tree.root_seed = 9;
  sim::Engine e;
  gas::Config c;
  c.machine = topo::lehman(2);
  c.threads = 8;
  c.tracer = tracer;
  gas::Runtime rt(e, c);
  sched::StealParams params;
  params.policy = sched::VictimPolicy::local_first;
  params.rapid_diffusion = true;
  sched::WorkStealing<uts::Node> ws(
      rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](gas::Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  return ws.total_processed();
}

void check_schema(const trace::Tracer& tracer) {
  std::ostringstream os;
  tracer.export_chrome(os);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonValue::parse(os.str()));

  ASSERT_EQ(doc.type(), JsonValue::Type::object);
  ASSERT_TRUE(doc.contains("traceEvents"));
  ASSERT_EQ(doc.at("traceEvents").type(), JsonValue::Type::array);
  ASSERT_TRUE(doc.contains("displayTimeUnit"));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");

  const int ranks = tracer.ranks();
  // Open B/E nesting depth per (pid, tid) lane.
  std::map<std::pair<int, int>, int> depth;
  const auto& events = doc.at("traceEvents").items();
  if (trace::kEnabled) {
    EXPECT_FALSE(events.empty());
  }
  for (const auto& ev : events) {
    ASSERT_EQ(ev.type(), JsonValue::Type::object);
    for (const char* key : {"name", "cat", "ph"}) {
      ASSERT_TRUE(ev.contains(key)) << "missing " << key;
      EXPECT_EQ(ev.at(key).type(), JsonValue::Type::string);
    }
    for (const char* key : {"ts", "pid", "tid"}) {
      ASSERT_TRUE(ev.contains(key)) << "missing " << key;
      ASSERT_EQ(ev.at(key).type(), JsonValue::Type::number);
    }
    EXPECT_GE(ev.at("ts").as_number(), 0.0);

    const int tid = static_cast<int>(ev.at("tid").as_number());
    const int pid = static_cast<int>(ev.at("pid").as_number());
    ASSERT_GE(tid, 0);
    ASSERT_LE(tid, ranks);  // ranks() is the engine lane
    if (tid < ranks) {
      EXPECT_EQ(pid, tracer.node_of(tid)) << "tid " << tid;
    } else {
      EXPECT_EQ(pid, 0) << "engine lane lives on pid 0";
    }

    const std::string& ph = ev.at("ph").as_string();
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "i") << ph;
    if (ph == "B") {
      ++depth[{pid, tid}];
    } else if (ph == "E") {
      ASSERT_GT((depth[{pid, tid}]), 0)
          << "E without matching B on lane " << pid << "/" << tid;
      --depth[{pid, tid}];
    }
    if (ph == "i") {
      ASSERT_TRUE(ev.contains("s"));
      EXPECT_EQ(ev.at("s").as_string(), "t");
    }
    if (ph != "E") {
      ASSERT_TRUE(ev.contains("args"));
      EXPECT_EQ(ev.at("args").type(), JsonValue::Type::object);
    }
  }
  for (const auto& [lane, open] : depth) {
    EXPECT_EQ(open, 0) << "unbalanced lane " << lane.first << "/"
                       << lane.second;
  }
}

TEST(TraceSchema, FullTraceParsesAndBalances) {
  trace::Tracer tracer;
  const std::uint64_t nodes = run_uts(&tracer);
  EXPECT_GT(nodes, 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  check_schema(tracer);
}

TEST(TraceSchema, WrappedRingStillBalancesPerLane) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with HUPC_TRACE=0";
  // A tiny ring guarantees drops; the exporter must drop orphan E events
  // from the lost prefix and close still-open B events at the tail.
  trace::Tracer tracer(512);
  (void)run_uts(&tracer);
  ASSERT_GT(tracer.dropped(), 0u);
  check_schema(tracer);
}

TEST(TraceSchema, EscapesSpecialCharactersInNames) {
  trace::Tracer tracer;
  tracer.instant(trace::Category::user, "quote\"back\\slash\tctrl", 0);
  std::ostringstream os;
  tracer.export_chrome(os);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonValue::parse(os.str()));
  const auto& events = doc.at("traceEvents").items();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("name").as_string(), "quote\"back\\slash\tctrl");
}

TEST(TraceSchema, EmptyTracerExportsValidDocument) {
  trace::Tracer tracer;
  std::ostringstream os;
  tracer.export_chrome(os);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonValue::parse(os.str()));
  EXPECT_TRUE(doc.at("traceEvents").items().empty());
}

TEST(TraceSchema, SummaryExportIsMachineReadable) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with HUPC_TRACE=0";
  trace::Tracer tracer;
  (void)run_uts(&tracer);
  std::ostringstream os;
  tracer.export_summary(os);
  std::istringstream is(os.str());
  std::string line;
  bool saw_header = false, saw_events = false, saw_time = false,
       saw_counter = false;
  while (std::getline(is, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "trace") {
      saw_header = true;
    } else if (tag == "events") {
      std::string cat;
      std::uint64_t n = 0;
      ASSERT_TRUE(static_cast<bool>(fields >> cat >> n)) << line;
      saw_events = true;
    } else if (tag == "time") {
      int rank = 0;
      std::string cat;
      long long ns = -1;
      ASSERT_TRUE(static_cast<bool>(fields >> rank >> cat >> ns)) << line;
      EXPECT_GE(ns, 0) << line;
      saw_time = true;
    } else if (tag == "counter") {
      std::string name;
      int rank = 0;
      std::uint64_t value = 0;
      ASSERT_TRUE(static_cast<bool>(fields >> name >> rank >> value)) << line;
      saw_counter = true;
    } else {
      FAIL() << "unknown summary line: " << line;
    }
  }
  EXPECT_TRUE(saw_header);
  EXPECT_TRUE(saw_events);
  EXPECT_TRUE(saw_time);
  EXPECT_TRUE(saw_counter);
}

}  // namespace
