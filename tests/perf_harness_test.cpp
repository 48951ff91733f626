// Tests for the src/perf benchmark harness: JSON round-trips (perf::Json's
// writer against the tests' reader), robust statistics, registry/filtering,
// warmup discarding, counter capture, and the property the regression gate
// stands on — two Runner runs of a deterministic simulation benchmark
// serialize bit-identical artifacts.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "json_reader.hpp"
#include "perf/benchmark.hpp"
#include "perf/json.hpp"
#include "perf/runner.hpp"
#include "perf/stats.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace {

using namespace hupc;  // NOLINT
using test::JsonValue;

// --- Json ------------------------------------------------------------------

TEST(PerfJson, ParseSerializeRoundTrip) {
  const std::string text =
      R"({"schema_version":1,"name":"x","ok":true,"none":null,)"
      R"("nums":[1,-2.5,3e10],"nested":{"a":"b"}})";
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.at("schema_version").as_number(), 1);
  EXPECT_EQ(doc.at("name").as_string(), "x");
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  EXPECT_EQ(doc.at("nums").size(), 3u);
  EXPECT_EQ(doc.at("nums").items()[1].as_number(), -2.5);
  EXPECT_EQ(doc.at("nested").at("a").as_string(), "b");
  // Re-parsing the dump reproduces an equal document.
  EXPECT_EQ(JsonValue::parse(doc.dump()), doc);
  EXPECT_EQ(JsonValue::parse(doc.dump(2)), doc);
}

TEST(PerfJson, DoublesRoundTripExactly) {
  // The regression gate relies on parse(dump(x)) == x bit-exactly.
  const std::vector<double> values = {0.1,     1.0 / 3.0,      6.02214076e23,
                                      5e-324,  0.015027234567, 1e308,
                                      -0.0001, 123456789.123456789};
  for (double v : values) {
    perf::Json num = v;
    const JsonValue back = JsonValue::parse(num.dump());
    EXPECT_EQ(back.as_number(), v) << "value " << v;
  }
}

TEST(PerfJson, ObjectsPreserveInsertionOrder) {
  perf::Json obj = perf::Json::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), R"({"zebra":1,"alpha":2,"mid":3})");
  obj.set("alpha", 9);  // overwrite keeps position
  EXPECT_EQ(obj.dump(), R"({"zebra":1,"alpha":9,"mid":3})");
}

TEST(PerfJson, StringEscapes) {
  const JsonValue doc = JsonValue::parse(R"({"s":"a\"b\\c\n\tA"})");
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\\c\n\tA");
  EXPECT_EQ(JsonValue::parse(doc.dump()), doc);
}

TEST(PerfJson, MalformedInputThrows) {
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("[1,2,]"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("true false"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("nul"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), std::runtime_error);
}

// --- stats -----------------------------------------------------------------

TEST(PerfStats, MedianOddEven) {
  const std::vector<double> odd = {5, 1, 3};
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_EQ(perf::median(odd), 3);
  EXPECT_EQ(perf::median(even), 2.5);
}

TEST(PerfStats, SummaryOfKnownDistribution) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const perf::Summary s = perf::summarize(xs);
  EXPECT_EQ(s.count, 9u);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 9);
  EXPECT_EQ(s.mean, 5);
  EXPECT_EQ(s.median, 5);
  // |x - 5| = {4,3,2,1,0,1,2,3,4}; median of that is 2.
  EXPECT_EQ(s.mad, 2);
  EXPECT_LE(s.ci95_lo, s.median);
  EXPECT_GE(s.ci95_hi, s.median);
  EXPECT_GE(s.ci95_lo, s.min);
  EXPECT_LE(s.ci95_hi, s.max);
}

TEST(PerfStats, ConstantDataCollapsesCi) {
  const std::vector<double> xs = {7, 7, 7, 7};
  const perf::Summary s = perf::summarize(xs);
  EXPECT_EQ(s.mad, 0);
  EXPECT_EQ(s.ci95_lo, 7);
  EXPECT_EQ(s.ci95_hi, 7);
}

TEST(PerfStats, SingleSample) {
  const std::vector<double> xs = {42.5};
  const perf::Summary s = perf::summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.median, 42.5);
  EXPECT_EQ(s.mad, 0);
  EXPECT_EQ(s.ci95_lo, 42.5);
  EXPECT_EQ(s.ci95_hi, 42.5);
}

TEST(PerfStats, BootstrapIsDeterministic) {
  const std::vector<double> xs = {3.1, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3};
  const perf::Summary a = perf::summarize(xs);
  const perf::Summary b = perf::summarize(xs);
  EXPECT_EQ(a.ci95_lo, b.ci95_lo);  // fixed seed, bit-identical
  EXPECT_EQ(a.ci95_hi, b.ci95_hi);
}

// --- registry --------------------------------------------------------------

perf::Benchmark make_bench(std::string id, bool in_smoke = true) {
  return perf::Benchmark{.id = std::move(id),
                         .fn = [](perf::Context&) {},
                         .in_smoke = in_smoke};
}

TEST(PerfRegistry, RejectsDuplicateAndEmptyIds) {
  perf::Registry reg;
  reg.add(make_bench("a.one"));
  EXPECT_THROW(reg.add(make_bench("a.one")), std::invalid_argument);
  EXPECT_THROW(reg.add(make_bench("")), std::invalid_argument);
}

TEST(PerfRegistry, FilterMatchesCommaSeparatedSubstrings) {
  perf::Registry reg;
  reg.add(make_bench("gups.coalesce.naive"));
  reg.add(make_bench("gups.coalesce.grouped"));
  reg.add(make_bench("uts.steal.gige.k8", /*in_smoke=*/false));

  auto ids = [](const std::vector<const perf::Benchmark*>& sel) {
    std::vector<std::string> out;
    for (const auto* b : sel) out.push_back(b->id);
    return out;
  };

  EXPECT_EQ(ids(reg.match("", perf::Tier::full)).size(), 3u);
  EXPECT_EQ(ids(reg.match("coalesce", perf::Tier::full)).size(), 2u);
  EXPECT_EQ(ids(reg.match("naive,steal", perf::Tier::full)),
            (std::vector<std::string>{"gups.coalesce.naive",
                                      "uts.steal.gige.k8"}));
  EXPECT_TRUE(reg.match("nomatch", perf::Tier::full).empty());
  // Smoke tier drops in_smoke=false entries even when the filter matches.
  EXPECT_TRUE(reg.match("steal", perf::Tier::smoke).empty());
  EXPECT_EQ(ids(reg.match("", perf::Tier::smoke)).size(), 2u);
}

TEST(PerfRegistry, ParseTier) {
  EXPECT_EQ(perf::parse_tier("smoke"), perf::Tier::smoke);
  EXPECT_EQ(perf::parse_tier("full"), perf::Tier::full);
  EXPECT_THROW((void)perf::parse_tier("fast"), std::invalid_argument);
}

// --- runner ----------------------------------------------------------------

// A deterministic "simulation" benchmark: virtual time advanced by a fixed
// event pattern, throughput = work / virtual seconds. Same every run.
void sim_clock_bench(perf::Context& ctx) {
  ctx.set_config("events", "1000");
  sim::Engine engine;
  for (int i = 0; i < 1000; ++i) {
    sim::call_at(engine, static_cast<sim::Time>(i) * 17 + 3, [] {});
  }
  engine.run();
  const double virt_s = static_cast<double>(engine.now()) * 1e-9;
  ctx.report("events_per_s", 1000.0 / virt_s, "1/s");
  ctx.report_counter("virt_ns", static_cast<std::uint64_t>(engine.now()));
}

perf::RunnerOptions quiet_options() {
  perf::RunnerOptions opt;
  opt.repetitions = 3;
  opt.tier = perf::Tier::smoke;
  opt.print_table = false;
  return opt;
}

TEST(PerfRunner, DeterministicSamplesUnderSimClock) {
  perf::Registry reg;
  reg.add(perf::Benchmark{.id = "test.sim.clock", .fn = sim_clock_bench});

  const perf::Runner runner("perf_harness_test", quiet_options());
  const std::vector<perf::Result> results = runner.run(reg);
  ASSERT_EQ(results.size(), 1u);
  const perf::Result& r = results[0];
  EXPECT_EQ(r.id, "test.sim.clock");
  EXPECT_EQ(r.repetitions, 3);

  const perf::MetricSeries* m = r.metric("events_per_s");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->samples.size(), 3u);
  EXPECT_EQ(m->samples[0], m->samples[1]);  // bit-identical repetitions
  EXPECT_EQ(m->samples[1], m->samples[2]);
  EXPECT_EQ(r.counter("virt_ns"), 999u * 17u + 3u);
  EXPECT_THROW((void)r.median("no_such_metric"), std::out_of_range);
}

TEST(PerfRunner, TwoRunsSerializeIdenticalArtifacts) {
  perf::Registry reg;
  reg.add(perf::Benchmark{.id = "test.sim.clock", .fn = sim_clock_bench});
  const perf::Runner runner("perf_harness_test", quiet_options());

  std::ostringstream a;
  std::ostringstream b;
  runner.write_artifact(a, runner.run(reg));
  runner.write_artifact(b, runner.run(reg));
  EXPECT_EQ(a.str(), b.str());  // the property the regression gate gates on
  EXPECT_FALSE(a.str().empty());
}

TEST(PerfRunner, ArtifactMatchesSchemaV1) {
  perf::Registry reg;
  reg.add(perf::Benchmark{.id = "test.sim.clock", .fn = sim_clock_bench});
  const perf::Runner runner("perf_harness_test", quiet_options());

  std::ostringstream os;
  runner.write_artifact(os, runner.run(reg));
  const JsonValue doc = JsonValue::parse(os.str());

  EXPECT_EQ(doc.at("schema_version").as_number(), 1);
  EXPECT_EQ(doc.at("suite").as_string(), "perf_harness_test");
  EXPECT_EQ(doc.at("tier").as_string(), "smoke");
  ASSERT_TRUE(doc.at("fingerprint").is_object());
  EXPECT_TRUE(doc.at("fingerprint").contains("git_sha"));
  EXPECT_TRUE(doc.at("fingerprint").contains("build_type"));
  EXPECT_TRUE(doc.at("fingerprint").contains("trace_level"));

  ASSERT_EQ(doc.at("benchmarks").size(), 1u);
  const JsonValue& bench = doc.at("benchmarks").items()[0];
  EXPECT_EQ(bench.at("id").as_string(), "test.sim.clock");
  EXPECT_EQ(bench.at("config").at("events").as_string(), "1000");
  const JsonValue& metric = bench.at("metrics").at("events_per_s");
  EXPECT_EQ(metric.at("unit").as_string(), "1/s");
  EXPECT_EQ(metric.at("direction").as_string(), "higher_is_better");
  EXPECT_EQ(metric.at("kind").as_string(), "modeled");
  EXPECT_EQ(metric.at("samples").size(), 3u);
  EXPECT_EQ(metric.at("median").as_number(),
            metric.at("samples").items()[0].as_number());
  EXPECT_EQ(metric.at("mad").as_number(), 0);
  EXPECT_EQ(bench.at("counters").at("virt_ns").as_number(), 999 * 17 + 3);
}

TEST(PerfRunner, WarmupRepetitionsAreDiscarded) {
  int calls = 0;
  perf::Registry reg;
  reg.add(perf::Benchmark{.id = "test.warmup",
                          .fn =
                              [&calls](perf::Context& ctx) {
                                ++calls;
                                // Warmup reps report too; only sampled reps
                                // may land in the series.
                                ctx.report("v", ctx.warmup_rep() ? -1.0 : 1.0,
                                           "x");
                              },
                          .warmup = 2});

  perf::RunnerOptions opt = quiet_options();
  opt.repetitions = 3;
  const perf::Runner runner("perf_harness_test", opt);
  const std::vector<perf::Result> results = runner.run(reg);
  EXPECT_EQ(calls, 5);  // 2 warmup + 3 sampled
  ASSERT_EQ(results.size(), 1u);
  const perf::MetricSeries* m = results[0].metric("v");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->samples.size(), 3u);
  for (double s : m->samples) EXPECT_EQ(s, 1.0);
  EXPECT_EQ(results[0].warmup, 2);
}

TEST(PerfRunner, CliDefaultsToOneRepetition) {
  // The simulation cells are deterministic: a hand-run bench binary costs
  // one simulation per cell unless --repetitions asks for more.
  const char* argv[] = {"perf_harness_test"};
  const perf::Runner runner("perf_harness_test", util::Cli(1, argv));
  EXPECT_EQ(runner.options().repetitions, 1);
}

TEST(PerfRunner, TraceCounterCapture) {
  perf::Registry reg;
  reg.add(perf::Benchmark{.id = "test.counters",
                          .fn = [](perf::Context& ctx) {
                            trace::Counters counters;
                            const auto msg = trace::intern("net.msg");
                            counters.add(msg, 0, 5);
                            counters.add(msg, 1, 7);
                            counters.add(trace::intern("net.bytes"), 0, 4096);
                            ctx.report_trace_counters(
                                counters, {"net.msg", "net.bytes"});
                            ctx.report("v", 1.0, "x");
                          }});
  const perf::Runner runner("perf_harness_test", quiet_options());
  const std::vector<perf::Result> results = runner.run(reg);
  ASSERT_EQ(results.size(), 1u);
  // Counting is on at every trace level, so the artifact always carries
  // the counters.
  EXPECT_EQ(results[0].counter("net.msg"), 12u);
  EXPECT_EQ(results[0].counter("net.bytes"), 4096u);
}

TEST(PerfRunner, FilterSelectsSubset) {
  perf::Registry reg;
  reg.add(perf::Benchmark{.id = "alpha.one",
                          .fn = [](perf::Context& ctx) {
                            ctx.report("v", 1.0, "x");
                          }});
  reg.add(perf::Benchmark{.id = "beta.two",
                          .fn = [](perf::Context& ctx) {
                            ctx.report("v", 2.0, "x");
                          }});
  perf::RunnerOptions opt = quiet_options();
  opt.filter = "beta";
  const perf::Runner runner("perf_harness_test", opt);
  const std::vector<perf::Result> results = runner.run(reg);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, "beta.two");
}

}  // namespace
