#include "trace_invariance_runs.hpp"

#include <memory>

#include "async/rpc.hpp"
#include "gas/gas.hpp"
#include "kv/store.hpp"
#include "kv/workload.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"
#include "uts/tree.hpp"

namespace hupc::test {

namespace {

gas::Config config(trace::Tracer* tracer) {
  gas::Config c;
  c.machine = topo::lehman(2);
  c.threads = 8;
  c.tracer = tracer;
  return c;
}

// A distinct item type, so this translation unit's WorkStealing
// instantiation never shares a symbol with the HUPC_TRACE=0 test's.
struct Item {
  uts::Node node;
};

}  // namespace

CounterMap uts_counters(bool with_tracer) {
  uts::TreeParams tree;
  tree.b0 = 200;
  tree.root_seed = 3;
  auto tracer = with_tracer ? std::make_unique<trace::Tracer>() : nullptr;
  sim::Engine e;
  gas::Runtime rt(e, config(tracer.get()));
  sched::StealParams params;
  params.policy = sched::VictimPolicy::local_first;
  params.rapid_diffusion = true;
  std::vector<uts::Node> children;
  sched::WorkStealing<Item> ws(
      rt, params, [&](const Item& it, std::vector<Item>& out) {
        children.clear();
        uts::expand(tree, it.node, children);
        for (const uts::Node& c : children) out.push_back(Item{c});
      });
  ws.seed_work(0, {Item{uts::root_node(tree)}});
  rt.spmd([&ws](gas::Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  return rt.counters().snapshot();
}

CounterMap kv_counters(bool with_tracer) {
  auto tracer = with_tracer ? std::make_unique<trace::Tracer>() : nullptr;
  sim::Engine e;
  gas::Runtime rt(e, config(tracer.get()));
  async::RpcDomain rpc(rt);
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt));
  kv::ServingParams params;
  params.keys = 64;
  params.ops_per_rank = 16;
  params.read_fraction = 0.5;
  (void)kv::run_serving(rt, store, params);
  return rt.counters().snapshot();
}

}  // namespace hupc::test
