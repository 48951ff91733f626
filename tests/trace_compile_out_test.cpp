// Compile-time guard for the HUPC_TRACE=0 configuration: this translation
// unit forces the trace level to 0 (overriding any -DHUPC_TRACE from the
// build) and proves that every HUPC_TRACE_* macro vanishes — its arguments
// are never evaluated, no event is recorded — that attaching a tracer never
// changes a simulation's virtual-time results, and that counting is not
// gated at all: the counter registry holds the same counts with a tracer,
// without one, and from this translation unit, so a trace-disabled build
// cannot produce different benchmark numbers or counters.
#ifdef HUPC_TRACE
#undef HUPC_TRACE
#endif
#define HUPC_TRACE 0

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "async/rpc.hpp"
#include "gas/gas.hpp"
#include "kv/store.hpp"
#include "kv/workload.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"
#include "trace_invariance_runs.hpp"
#include "uts/tree.hpp"

// The compile-time switch must be visible to this TU as "off".
static_assert(hupc::trace::kTraceLevel == 0,
              "this test must compile with HUPC_TRACE == 0");
static_assert(!hupc::trace::kEnabled);

namespace {

using namespace hupc;  // NOLINT: test-local convenience

int evaluations = 0;

// With HUPC_TRACE forced to 0 the macros never evaluate their arguments,
// so these counters are (by design) never called.
[[maybe_unused]] trace::Tracer* counted_tracer(trace::Tracer* t) {
  ++evaluations;
  return t;
}

[[maybe_unused]] int counted_rank() {
  ++evaluations;
  return 0;
}

TEST(TraceCompileOut, MacroArgumentsAreNeverEvaluated) {
  trace::Tracer tracer;
  evaluations = 0;
  HUPC_TRACE_SCOPE(counted_tracer(&tracer), trace::Category::user, "scope",
                   counted_rank());
  HUPC_TRACE_BEGIN(counted_tracer(&tracer), trace::Category::user, "b",
                   counted_rank());
  HUPC_TRACE_END(counted_tracer(&tracer), trace::Category::user, "b",
                 counted_rank());
  HUPC_TRACE_INSTANT(counted_tracer(&tracer), trace::Category::user, "i",
                     counted_rank(), 1, 2);
  EXPECT_EQ(evaluations, 0) << "disabled macros must not evaluate arguments";
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TraceCompileOut, MacrosAreValidStatementsInControlFlow) {
  // `((void)0)` must compose with unbraced if/else and comma contexts.
  trace::Tracer tracer;
  if (tracer.recorded() == 0)
    HUPC_TRACE_INSTANT(&tracer, trace::Category::user, "then", 0);
  else
    HUPC_TRACE_INSTANT(&tracer, trace::Category::user, "else", 0);
  for (int i = 0; i < 3; ++i)
    HUPC_TRACE_INSTANT(&tracer, trace::Category::user, "loop", 0);
  EXPECT_EQ(tracer.recorded(), 0u);
}

// The zero-cost claim that matters for benchmark integrity: virtual time
// and results are identical with and without a tracer attached. (Library
// code may itself be compiled with tracing enabled; recording must still
// charge nothing.)
struct UtsOutcome {
  std::uint64_t nodes = 0;
  sim::Time elapsed = 0;
};

UtsOutcome run_uts(trace::Tracer* tracer,
                   test::CounterMap* counters = nullptr) {
  uts::TreeParams tree;
  tree.b0 = 200;
  tree.root_seed = 3;
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
  if (counters != nullptr) *counters = rt.counters().snapshot();
  return {ws.total_processed(), e.now()};
}

TEST(TraceCompileOut, TracerAttachmentChangesNoBenchmarkResult) {
  trace::Tracer tracer;
  const auto traced = run_uts(&tracer);
  const auto bare = run_uts(nullptr);
  EXPECT_EQ(traced.elapsed, bare.elapsed);
  EXPECT_EQ(traced.nodes, bare.nodes);
}

test::CounterMap run_kv(trace::Tracer* tracer) {
  sim::Engine e;
  gas::Config c;
  c.machine = topo::lehman(2);
  c.threads = 8;
  c.tracer = tracer;
  gas::Runtime rt(e, c);
  async::RpcDomain rpc(rt);
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt));
  kv::ServingParams params;
  params.keys = 64;
  params.ops_per_rank = 16;
  params.read_fraction = 0.5;
  (void)kv::run_serving(rt, store, params);
  return rt.counters().snapshot();
}

std::uint64_t total(const test::CounterMap& counters, const char* name) {
  const auto it = counters.find(name);
  if (it == counters.end()) return 0;
  std::uint64_t sum = 0;
  for (const std::uint64_t v : it->second) sum += v;
  return sum;
}

// Counting is not macro-gated: a run made from this HUPC_TRACE=0
// translation unit, with or without a tracer, leaves exactly the counters
// the same run made at the build's trace level leaves.
TEST(TraceCompileOut, CountersIdenticalWithTracerWithoutAndCompiledOut) {
  trace::Tracer tracer;
  test::CounterMap uts_off_traced;
  test::CounterMap uts_off_bare;
  (void)run_uts(&tracer, &uts_off_traced);
  (void)run_uts(nullptr, &uts_off_bare);
  EXPECT_EQ(tracer.summary().counters, uts_off_traced);
  const test::CounterMap uts_on_traced = test::uts_counters(true);
  EXPECT_GT(total(uts_on_traced, "sched.processed"), 0u);
  EXPECT_GT(total(uts_on_traced, "sched.steal.success"), 0u);
  EXPECT_GT(total(uts_on_traced, "net.msg"), 0u);
  EXPECT_EQ(test::uts_counters(false), uts_on_traced);
  EXPECT_EQ(uts_off_traced, uts_on_traced);
  EXPECT_EQ(uts_off_bare, uts_on_traced);

  trace::Tracer kv_tracer;
  const test::CounterMap kv_off_traced = run_kv(&kv_tracer);
  const test::CounterMap kv_on_traced = test::kv_counters(true);
  EXPECT_GT(total(kv_on_traced, "gas.kv.get"), 0u);
  EXPECT_GT(total(kv_on_traced, "async.rpc.sent"), 0u);
  EXPECT_GT(total(kv_on_traced, "kv.latency.op"), 0u);
  EXPECT_EQ(test::kv_counters(false), kv_on_traced);
  EXPECT_EQ(kv_off_traced, kv_on_traced);
  EXPECT_EQ(run_kv(nullptr), kv_on_traced);
}

TEST(TraceCompileOut, TracerObjectStillUsableDirectly) {
  // The Tracer class itself is not macro-gated: explicit calls work at any
  // compile level, so tooling can always construct and export traces.
  trace::Tracer tracer;
  tracer.instant(trace::Category::user, "explicit", 0);
  EXPECT_EQ(tracer.recorded(), 1u);
}

}  // namespace
