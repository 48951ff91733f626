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
#include <initializer_list>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "example_flags.hpp"
#include "fault/fuzzer.hpp"
#include "fft/ft_model.hpp"
#include "gas/gas.hpp"
#include "linalg/summa.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "stream/random_access.hpp"
#include "stream/stream.hpp"
#include "util/cli.hpp"
#include "uts/tree.hpp"

using namespace hupc;  // NOLINT

namespace {

gas::Config build_config(const util::Cli& cli) {
  return gas::preset_config(
      cli.get("machine", "lehman"), cli.get_int_in<int>("nodes", 4),
      cli.get_int_in<int>("threads", 16),
      gas::parse_backend(cli.get("backend", "processes")),
      cli.get("conduit", ""));
}

/// `--variant` must name one of the workload's variants; a typo must not
/// silently measure the default.
std::string get_variant(const util::Cli& cli, const char* fallback,
                        std::initializer_list<std::string_view> allowed) {
  return util::one_of("variant", cli.get("variant", fallback), allowed);
}

/// One workload run: the engine, the tracer the trace flags ask for, the
/// runtime `config` describes, and the fault plan the fault flags ask for,
/// installed before the workload builds anything on the runtime.
struct Run {
  Run(const util::Cli& cli, gas::Config config)
      : trace(cli),
        rt(engine, traced(std::move(config), trace.tracer.get())),
        plan(examples::install_fault_plan(examples::fault_plan_flags(cli),
                                          rt)) {}

  /// Prints the fault and run footers and writes the trace; returns the
  /// exit status.
  int finish() {
    examples::fault_footer(plan.get());
    std::printf("-- virtual time %.3f ms | %llu events | %llu network msgs, "
                "%.1f MB\n",
                sim::to_seconds(engine.now()) * 1e3,
                static_cast<unsigned long long>(engine.events_executed()),
                static_cast<unsigned long long>(rt.network().total_messages()),
                rt.network().total_bytes() / 1e6);
    return trace.write("hupc_bench", "-- trace");
  }

  static gas::Config traced(gas::Config config, trace::Tracer* tracer) {
    config.tracer = tracer;
    return config;
  }

  sim::Engine engine;
  examples::TraceFlags trace;
  gas::Runtime rt;
  std::unique_ptr<fault::FaultPlan> plan;
};

int run_uts(const util::Cli& cli) {
  Run run(cli, build_config(cli));
  uts::TreeParams tree;
  tree.root_seed = cli.get_int_in<std::uint32_t>("seed", 42);
  const std::string variant =
      get_variant(cli, "diffusion", {"baseline", "local", "diffusion"});
  cli.reject_unread("hupc_bench");
  sched::StealParams params;
  params.policy = variant == "baseline" ? sched::VictimPolicy::random
                                        : sched::VictimPolicy::local_first;
  params.rapid_diffusion = variant == "diffusion";
  sched::WorkStealing<uts::Node> ws(
      run.rt, params, [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
        uts::expand(tree, n, out);
      });
  ws.seed_work(0, {uts::root_node(tree)});
  run.rt.spmd(
      [&ws](gas::Thread& t) -> sim::Task<void> { co_await ws.run(t); });
  run.rt.run_to_completion();
  std::printf("uts[%s]: %llu nodes, %.1f Mnodes/s, local steals %.1f%%\n",
              variant.c_str(),
              static_cast<unsigned long long>(ws.total_processed()),
              static_cast<double>(ws.total_processed()) /
                  sim::to_seconds(run.engine.now()) / 1e6,
              ws.local_steal_ratio() * 100.0);
  return run.finish();
}

int run_ft(const util::Cli& cli) {
  Run run(cli, build_config(cli));
  fft::FtConfig fc;
  const std::string cls = util::one_of("class", cli.get("class", "A"),
                                       {"S", "A", "B"});
  fc.grid = cls == "B"   ? fft::FtParams::class_b()
            : cls == "S" ? fft::FtParams::class_s()
                         : fft::FtParams::class_a();
  const std::string variant = get_variant(cli, "split", {"split", "overlap"});
  fc.variant = variant == "overlap" ? fft::CommVariant::overlap
                                    : fft::CommVariant::split_phase;
  fc.subs = cli.get_int_in<int>("subs", 0);
  fc.coll_algo = *gas::parse_coll_algo(cli.choice(
      "coll-algo", "auto", {"auto", "flat", "hier", "ring", "dissem"}));
  cli.reject_unread("hupc_bench");
  fft::FtModel ft(run.rt, fc);
  run.rt.spmd(
      [&ft](gas::Thread& t) -> sim::Task<void> { co_await ft.run(t); });
  run.rt.run_to_completion();
  const auto m = ft.mean();
  std::printf("ft[class %s, %s, subs %d]: total %.3fs | evolve %.3f fft2d "
              "%.3f transpose %.3f comm %.3f fft1d %.3f\n",
              fc.grid.name, variant.c_str(), fc.subs, m.total, m.evolve,
              m.fft2d, m.transpose, m.comm, m.fft1d);
  return run.finish();
}

int run_stream(const util::Cli& cli) {
  auto config = build_config(cli);
  config.machine = topo::lehman(1);  // single-node study
  Run run(cli, std::move(config));
  const std::string variant = get_variant(
      cli, "cast", {"baseline", "relocalize", "cast", "openmp"});
  stream::TriadVariant v = stream::TriadVariant::upc_cast;
  if (variant == "baseline") v = stream::TriadVariant::upc_baseline;
  if (variant == "relocalize") v = stream::TriadVariant::upc_relocalize;
  if (variant == "openmp") v = stream::TriadVariant::openmp;
  const auto elements = cli.get_int_in<std::size_t>("elements", 4 << 20);
  cli.reject_unread("hupc_bench");
  const auto r = stream::twisted_triad(run.rt, elements, v);
  std::printf("stream[twisted %s]: %.1f GB/s\n", variant.c_str(),
              r.gbytes_per_s);
  return run.finish();
}

int run_gups(const util::Cli& cli) {
  Run run(cli, build_config(cli));
  stream::RandomAccess ra(run.rt, cli.get_int_in<int>("log2-table", 16));
  const std::string variant =
      get_variant(cli, "grouped", {"naive", "grouped", "gather"});
  if (variant == "gather") {
    stream::GatherParams gp;
    gp.bursts = cli.get_int_in<std::uint64_t>("bursts", 64);
    gp.burst_len = cli.get_int_in<std::uint64_t>("burst-len", 64);
    gp.cached = examples::read_cache_flag(cli, "off");
    gp.cache = examples::cache_geometry(cli);
    cli.reject_unread("hupc_bench");
    const auto g = ra.run_gather(gp);
    std::printf("gups[gather, cache %s]: %.2f Mreads/s (%llu reads, %llu "
                "remote, checksum %llx)\n",
                gp.cached ? "on" : "off", g.mreads,
                static_cast<unsigned long long>(g.reads),
                static_cast<unsigned long long>(g.remote),
                static_cast<unsigned long long>(g.checksum));
    return run.finish();
  }
  const bool grouped = variant == "grouped";
  const auto updates = cli.get_int_in<std::uint64_t>("updates", 4096);
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
  return run.finish();
}

int run_summa(const util::Cli& cli) {
  auto config = build_config(cli);
  const int p = static_cast<int>(
      std::lround(std::sqrt(static_cast<double>(config.threads))));
  if (p * p != config.threads) {
    throw std::invalid_argument("summa: --threads must be a perfect square");
  }
  Run run(cli, std::move(config));
  const auto size = cli.get_int_in<std::size_t>("size", 256);
  cli.reject_unread("hupc_bench");
  linalg::Summa summa(run.rt, linalg::ProcessGrid{p, p}, size, size, size);
  summa.fill(1);
  run.rt.spmd([&summa](gas::Thread& t) -> sim::Task<void> {
    co_await summa.run(t);
  });
  run.rt.run_to_completion();
  const double flops = 2.0 * static_cast<double>(size) * size * size;
  std::printf("summa[%zu^3 on %dx%d]: %.2f GF/s effective\n", size, p, p,
              flops / sim::to_seconds(run.engine.now()) / 1e9);
  return run.finish();
}

int run_fuzz(const util::Cli& cli) {
  fault::FuzzOptions opt;
  opt.base_seed = cli.get_int_in<std::uint64_t>("fuzz-seed", 1);
  opt.budget = cli.get_int_in<int>("budget", 32);
  opt.plant_split_bug = cli.get_bool("fuzz-test-bug", false);
  opt.verbose = cli.get_bool("fuzz-verbose", false);
  cli.reject_unread("hupc_bench");
  fault::Fuzzer fuzzer(opt);
  return fuzzer.run(std::cout).ok() ? 0 : 1;
}

int dispatch(const util::Cli& cli) {
  const std::string workload = cli.get("workload", "");
  if (workload == "uts") return run_uts(cli);
  if (workload == "ft") return run_ft(cli);
  if (workload == "stream") return run_stream(cli);
  if (workload == "gups") return run_gups(cli);
  if (workload == "summa") return run_summa(cli);
  if (workload == "fuzz") return run_fuzz(cli);
  if (workload.empty()) {
    cli.reject_unread("hupc_bench");  // the usage run takes no other flag
  } else {
    std::fprintf(stderr, "hupc_bench: error: unknown --workload '%s'\n",
                 workload.c_str());
  }
  std::fprintf(workload.empty() ? stdout : stderr,
               "usage: hupc_bench --workload uts|ft|stream|gups|summa|fuzz "
               "[--machine lehman|pyramid] [--nodes N] [--threads T]\n"
               "                  [--backend processes|pthreads] "
               "[--conduit ib-qdr|ib-ddr|gige] [--variant ...]\n"
               "                  [--fault-plan=NAME --fault-seed=S] | "
               "--workload fuzz [--budget N] [--fuzz-seed S]\n");
  return workload.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("hupc_bench", argc, argv, dispatch);
}
