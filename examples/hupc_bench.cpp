// Unified scenario runner: every workload in the library behind one CLI,
// with machine/backend/network knobs and a per-phase profile — the
// "driver" binary a downstream user reaches for first.
//
//   ./hupc_bench --workload uts|ft|stream|gups|summa|fuzz
//                [--machine lehman|pyramid] [--nodes N] [--threads T]
//                [--backend processes|pthreads] [--conduit ib-qdr|ib-ddr|gige]
//                [--subs S]            (ft: sub-threads per UPC thread)
//                [--coll-algo=auto|flat|hier|ring|dissem]
//                                      (ft: all-to-all exchange algorithm —
//                                       flat staggered or supernode-leader
//                                       hierarchical; auto selects by size)
//                [--variant ...]       (workload-specific, see below)
//                [--trace=FILE]        (chrome://tracing JSON of the run)
//                [--trace-summary=FILE] (per-category counts/time + counters)
//                [--fault-plan=NAME --fault-seed=S]
//                                      (run under a seeded fault plan; any
//                                       workload; see fault/plan.hpp)
//
// Variants: uts: baseline|local|diffusion; ft: split|overlap;
//           stream: baseline|relocalize|cast|openmp;
//           gups: naive|grouped|gather (gather reads bursts of consecutive
//                 elements; --read-cache=on|off serves them through a
//                 read-cache epoch, --cache-lines=N / --cache-line-bytes=B
//                 set its geometry);
//           summa: (grid inferred from --threads, must be a square).
//
// Fuzzing: --workload fuzz [--budget N] [--fuzz-seed S] [--fuzz-test-bug]
//          [--fuzz-verbose] sweeps N seeded fault-injection cases, shrinks
//          any failure and prints its one-line replay command; exit status
//          is 1 if any case fails, 0 for a clean sweep.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fuzzer.hpp"
#include "fault/plan.hpp"
#include "fft/ft_model.hpp"
#include "gas/gas.hpp"
#include "linalg/summa.hpp"
#include "net/conduit.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "stream/random_access.hpp"
#include "stream/stream.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "uts/tree.hpp"

using namespace hupc;  // NOLINT

namespace {

std::unique_ptr<trace::Tracer> make_tracer(const util::Cli& cli) {
  if (cli.get("trace", "").empty() && cli.get("trace-summary", "").empty()) {
    return nullptr;
  }
  return std::make_unique<trace::Tracer>();
}

int export_trace(const util::Cli& cli, const trace::Tracer* tracer) {
  if (!tracer) return 0;
  if (const std::string file = cli.get("trace", ""); !file.empty()) {
    std::ofstream os(file);
    tracer->export_chrome(os);
    if (!os) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", file.c_str());
      return 1;
    }
    std::printf("-- trace: %llu events (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(tracer->recorded()),
                static_cast<unsigned long long>(tracer->dropped()),
                file.c_str());
  }
  if (const std::string file = cli.get("trace-summary", ""); !file.empty()) {
    std::ofstream os(file);
    tracer->export_summary(os);
    if (!os) {
      std::fprintf(stderr, "error: cannot write trace summary to %s\n",
                   file.c_str());
      return 1;
    }
  }
  return 0;
}

gas::Config build_config(const util::Cli& cli,
                         trace::Tracer* tracer = nullptr) {
  gas::Config config;
  config.tracer = tracer;
  const std::string machine = cli.get("machine", "lehman");
  const int nodes = static_cast<int>(cli.get_int("nodes", 4));
  if (machine == "pyramid") {
    config.machine = topo::pyramid(nodes);
  } else if (machine == "lehman") {
    config.machine = topo::lehman(nodes);
  } else {
    throw std::invalid_argument("unknown machine preset '" + machine +
                                "' (expected pyramid|lehman)");
  }
  config.threads = static_cast<int>(cli.get_int("threads", 16));
  const std::string backend = cli.get("backend", "processes");
  if (backend == "pthreads") {
    config.backend = gas::Backend::pthreads;
  } else if (backend == "processes") {
    config.backend = gas::Backend::processes;
  } else {
    throw std::invalid_argument("unknown backend '" + backend +
                                "' (expected processes|pthreads)");
  }
  const std::string conduit = cli.get(
      "conduit", machine == "pyramid" ? "ib-ddr" : "ib-qdr");
  if (conduit == "gige") {
    config.conduit = net::gige();
  } else if (conduit == "ib-ddr") {
    config.conduit = net::ib_ddr();
  } else if (conduit == "ib-qdr") {
    config.conduit = net::ib_qdr();
  } else {
    throw std::invalid_argument("unknown conduit '" + conduit +
                                "' (expected gige|ib-qdr|ib-ddr)");
  }
  return config;
}

/// `--variant` must name one of the workload's variants; a typo must not
/// silently measure the default.
std::string get_variant(const util::Cli& cli, const char* fallback,
                        std::initializer_list<const char*> allowed) {
  const std::string variant = cli.get("variant", fallback);
  for (const char* a : allowed) {
    if (variant == a) return variant;
  }
  std::string expected;
  for (const char* a : allowed) {
    if (!expected.empty()) expected += '|';
    expected += a;
  }
  throw std::invalid_argument("unknown variant '" + variant + "' (expected " +
                              expected + ")");
}

/// `--fault-plan=NAME --fault-seed=S`: build + install a fault plan on `rt`.
/// Must run before constructing layers that read hooks at construction time
/// (WorkStealing, SubPool). Returns null when no plan was requested.
std::unique_ptr<fault::FaultPlan> make_fault_plan(const util::Cli& cli,
                                                  gas::Runtime& rt) {
  const std::string name = cli.get("fault-plan", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  if (name.empty()) return nullptr;
  auto plan =
      std::make_unique<fault::FaultPlan>(fault::plan_template(name, seed));
  plan->install(rt);
  std::printf("-- fault: %s\n", plan->params().describe().c_str());
  return plan;
}

void fault_footer(const fault::FaultPlan* plan) {
  if (plan == nullptr) return;
  std::printf("-- fault: injected %llu perturbations\n",
              static_cast<unsigned long long>(plan->stats().total()));
}

void footer(const sim::Engine& engine, const gas::Runtime& rt) {
  std::printf("-- virtual time %.3f ms | %llu events | %llu network msgs, "
              "%.1f MB\n",
              sim::to_seconds(engine.now()) * 1e3,
              static_cast<unsigned long long>(engine.events_executed()),
              static_cast<unsigned long long>(
                  const_cast<gas::Runtime&>(rt).network().total_messages()),
              const_cast<gas::Runtime&>(rt).network().total_bytes() / 1e6);
}

int run_uts(const util::Cli& cli) {
  sim::Engine engine;
  auto tracer = make_tracer(cli);
  gas::Runtime rt(engine, build_config(cli, tracer.get()));
  const auto plan = make_fault_plan(cli, rt);
  uts::TreeParams tree;
  tree.root_seed = static_cast<std::uint32_t>(cli.get_int("seed", 42));
  const std::string variant =
      get_variant(cli, "diffusion", {"baseline", "local", "diffusion"});
  cli.reject_unread("hupc_bench");
  sched::StealParams params;
  params.policy = variant == "baseline" ? sched::VictimPolicy::random
                                        : sched::VictimPolicy::local_first;
  params.rapid_diffusion = variant == "diffusion";
  sched::WorkStealing<uts::Node> ws(
      rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  rt.spmd([&ws](gas::Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  rt.run_to_completion();
  std::printf("uts[%s]: %llu nodes, %.1f Mnodes/s, local steals %.1f%%\n",
              variant.c_str(),
              static_cast<unsigned long long>(ws.total_processed()),
              static_cast<double>(ws.total_processed()) /
                  sim::to_seconds(engine.now()) / 1e6,
              ws.local_steal_ratio() * 100.0);
  fault_footer(plan.get());
  footer(engine, rt);
  return export_trace(cli, tracer.get());
}

/// `--coll-algo=auto|flat|hier|ring|dissem`: pin the collective algorithm
/// (fft: the all-to-all exchange schedule). Exits 2 on anything unknown —
/// a typo must not silently benchmark the wrong algorithm.
gas::CollAlgo coll_algo_flag(const util::Cli& cli, const char* program) {
  const std::string v = cli.get("coll-algo", "auto");
  const auto algo = gas::parse_coll_algo(v);
  if (!algo) {
    std::fprintf(stderr,
                 "%s: error: unknown --coll-algo value '%s' "
                 "(expected auto|flat|hier|ring|dissem)\n",
                 program, v.c_str());
    std::exit(2);
  }
  return *algo;
}

int run_ft(const util::Cli& cli) {
  sim::Engine engine;
  auto tracer = make_tracer(cli);
  gas::Runtime rt(engine, build_config(cli, tracer.get()));
  const auto plan = make_fault_plan(cli, rt);
  fft::FtConfig fc;
  const std::string cls = cli.get("class", "A");
  if (cls != "S" && cls != "A" && cls != "B") {
    throw std::invalid_argument("unknown class '" + cls +
                                "' (expected S|A|B)");
  }
  fc.grid = cls == "B"   ? fft::FtParams::class_b()
            : cls == "S" ? fft::FtParams::class_s()
                         : fft::FtParams::class_a();
  fc.variant = get_variant(cli, "split", {"split", "overlap"}) == "overlap"
                   ? fft::CommVariant::overlap
                   : fft::CommVariant::split_phase;
  fc.subs = static_cast<int>(cli.get_int("subs", 0));
  fc.coll_algo = coll_algo_flag(cli, "hupc_bench");
  cli.reject_unread("hupc_bench");
  fft::FtModel ft(rt, fc);
  rt.spmd([&ft](gas::Thread& t) -> sim::Task<void> { co_await ft.run(t); });
  rt.run_to_completion();
  const auto m = ft.mean();
  std::printf("ft[class %s, %s, subs %d]: total %.3fs | evolve %.3f fft2d "
              "%.3f transpose %.3f comm %.3f fft1d %.3f\n",
              fc.grid.name, cli.get("variant", "split").c_str(), fc.subs,
              m.total, m.evolve, m.fft2d, m.transpose, m.comm, m.fft1d);
  fault_footer(plan.get());
  footer(engine, rt);
  return export_trace(cli, tracer.get());
}

int run_stream(const util::Cli& cli) {
  sim::Engine engine;
  auto tracer = make_tracer(cli);
  auto config = build_config(cli, tracer.get());
  config.machine = topo::lehman(1);  // single-node study
  gas::Runtime rt(engine, config);
  const auto plan = make_fault_plan(cli, rt);
  const std::string variant = get_variant(
      cli, "cast", {"baseline", "relocalize", "cast", "openmp"});
  stream::TriadVariant v = stream::TriadVariant::upc_cast;
  if (variant == "baseline") v = stream::TriadVariant::upc_baseline;
  if (variant == "relocalize") v = stream::TriadVariant::upc_relocalize;
  if (variant == "openmp") v = stream::TriadVariant::openmp;
  const auto elements =
      static_cast<std::size_t>(cli.get_int("elements", 4 << 20));
  cli.reject_unread("hupc_bench");
  const auto r = stream::twisted_triad(rt, elements, v);
  std::printf("stream[twisted %s]: %.1f GB/s\n", variant.c_str(),
              r.gbytes_per_s);
  fault_footer(plan.get());
  footer(engine, rt);
  return export_trace(cli, tracer.get());
}

/// `--read-cache=on|off` plus the geometry knobs `--cache-lines` and
/// `--cache-line-bytes`. Strict on|off: a typo must not silently measure
/// the uncached path.
bool read_cache_flags(const util::Cli& cli, comm::CacheParams& params) {
  const std::string rc = cli.get("read-cache", "off");
  if (rc != "on" && rc != "off") {
    throw std::invalid_argument("unknown --read-cache value '" + rc +
                                "' (expected on|off)");
  }
  params.lines = static_cast<std::size_t>(cli.get_int("cache-lines", 256));
  params.line_bytes =
      static_cast<std::size_t>(cli.get_int("cache-line-bytes", 64));
  return rc == "on";
}

int run_gups(const util::Cli& cli) {
  sim::Engine engine;
  auto tracer = make_tracer(cli);
  gas::Runtime rt(engine, build_config(cli, tracer.get()));
  const auto plan = make_fault_plan(cli, rt);
  stream::RandomAccess ra(rt, static_cast<int>(cli.get_int("log2-table", 16)));
  const std::string variant =
      get_variant(cli, "grouped", {"naive", "grouped", "gather"});
  if (variant == "gather") {
    stream::GatherParams gp;
    gp.bursts = static_cast<std::uint64_t>(cli.get_int("bursts", 64));
    gp.burst_len = static_cast<std::uint64_t>(cli.get_int("burst-len", 64));
    gp.cached = read_cache_flags(cli, gp.cache);
    cli.reject_unread("hupc_bench");
    const auto g = ra.run_gather(gp);
    std::printf("gups[gather, cache %s]: %.2f Mreads/s (%llu reads, %llu "
                "remote, checksum %llx)\n",
                gp.cached ? "on" : "off", g.mreads,
                static_cast<unsigned long long>(g.reads),
                static_cast<unsigned long long>(g.remote),
                static_cast<unsigned long long>(g.checksum));
    fault_footer(plan.get());
    footer(engine, rt);
    return export_trace(cli, tracer.get());
  }
  const bool grouped = variant == "grouped";
  const auto updates =
      static_cast<std::uint64_t>(cli.get_int("updates", 4096));
  cli.reject_unread("hupc_bench");
  const auto r = ra.run(grouped ? stream::GupsVariant::grouped
                                : stream::GupsVariant::naive,
                        updates);
  std::printf("gups[%s]: %.4f GUP/s (%llu updates, %.1f%% local) %s\n",
              grouped ? "grouped" : "naive", r.gups,
              static_cast<unsigned long long>(r.updates),
              100.0 * static_cast<double>(r.local) /
                  static_cast<double>(r.updates),
              ra.verify() ? "" : "[table changed as expected after 1 pass]");
  fault_footer(plan.get());
  footer(engine, rt);
  return export_trace(cli, tracer.get());
}

int run_summa(const util::Cli& cli) {
  sim::Engine engine;
  auto tracer = make_tracer(cli);
  auto config = build_config(cli, tracer.get());
  const int p = static_cast<int>(
      std::lround(std::sqrt(static_cast<double>(config.threads))));
  if (p * p != config.threads) {
    throw std::invalid_argument("summa: --threads must be a perfect square");
  }
  gas::Runtime rt(engine, config);
  const auto plan = make_fault_plan(cli, rt);
  const auto size = static_cast<std::size_t>(cli.get_int("size", 256));
  cli.reject_unread("hupc_bench");
  linalg::Summa summa(rt, linalg::ProcessGrid{p, p}, size, size, size);
  summa.fill(1);
  rt.spmd([&summa](gas::Thread& t) -> sim::Task<void> {
    co_await summa.run(t);
  });
  rt.run_to_completion();
  const double flops = 2.0 * static_cast<double>(size) * size * size;
  std::printf("summa[%zu^3 on %dx%d]: %.2f GF/s effective\n", size, p, p,
              flops / sim::to_seconds(engine.now()) / 1e9);
  fault_footer(plan.get());
  footer(engine, rt);
  return export_trace(cli, tracer.get());
}

int run_fuzz(const util::Cli& cli) {
  fault::FuzzOptions opt;
  opt.base_seed = static_cast<std::uint64_t>(cli.get_int("fuzz-seed", 1));
  opt.budget = static_cast<int>(cli.get_int("budget", 32));
  opt.plant_split_bug = cli.get_bool("fuzz-test-bug", false);
  opt.verbose = cli.get_bool("fuzz-verbose", false);
  cli.reject_unread("hupc_bench");
  fault::Fuzzer fuzzer(opt);
  return fuzzer.run(std::cout).ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const std::string workload = cli.get("workload", "");
  if (workload == "uts") return run_uts(cli);
  if (workload == "ft") return run_ft(cli);
  if (workload == "stream") return run_stream(cli);
  if (workload == "gups") return run_gups(cli);
  if (workload == "summa") return run_summa(cli);
  if (workload == "fuzz") return run_fuzz(cli);
  if (!workload.empty()) {
    std::fprintf(stderr, "error: unknown --workload '%s'\n", workload.c_str());
  }
  std::fprintf(workload.empty() ? stdout : stderr,
               "usage: hupc_bench --workload uts|ft|stream|gups|summa|fuzz "
               "[--machine lehman|pyramid] [--nodes N] [--threads T]\n"
               "                  [--backend processes|pthreads] "
               "[--conduit ib-qdr|ib-ddr|gige] [--variant ...]\n"
               "                  [--fault-plan=NAME --fault-seed=S] | "
               "--workload fuzz [--budget N] [--fuzz-seed S]\n");
  return workload.empty() ? 0 : 2;
} catch (const std::invalid_argument& e) {
  // Bad input (an unknown name, or a config that fails validation) is a
  // usage error: exit 2, as unknown flags do.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
