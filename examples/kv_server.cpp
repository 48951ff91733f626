// kv_server — open-loop serving driver for the sharded in-GAS key-value
// store (DESIGN.md §16).
//
// Builds a KvStore sharded over every rank of the simulated machine, then
// runs kv::run_serving: rank-partitioned preload of the key universe, a
// barrier, and an open-loop measured phase where every rank fires
// get/put/update requests at precomputed Poisson arrival times (optionally
// bursty) and latency is charged from the INTENDED arrival to completion.
// The summary prints the latency distribution (p50/p99/p99.9 from the
// log-bucketed histogram), throughput, goodput under the SLO, and how the
// selector split operations between the AMO and RPC paths.
//
//   ./kv_server [--threads N] [--nodes M] [--machine lehman|pyramid]
//               [--dist=zipfian|uniform] [--zipf-s 0.99] [--rw-mix 0.95]
//               [--kv-path=auto|amo|rpc] [--keys 4096] [--ops 128]
//               [--shards S] [--capacity C] [--arrival HZ] [--burst B]
//               [--burst-len L] [--slo-us US] [--read-cache=on|off]
//               [--seed S] [--fault-plan=NAME] [--fault-seed=S]
//               [--trace FILE] [--trace-summary FILE]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "example_flags.hpp"
#include "gas/gas.hpp"
#include "kv/shard_map.hpp"
#include "kv/store.hpp"
#include "kv/workload.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

using namespace hupc;  // NOLINT

namespace {

int serve(const util::Cli& cli) {
  const int threads = cli.get_int_in<int>("threads", 16);
  const int nodes = cli.get_int_in<int>("nodes", 4);
  const std::string machine = cli.get("machine", "lehman");
  const kv::KeyDist dist = *kv::parse_key_dist(
      cli.choice("dist", "zipfian", {"zipfian", "uniform"}));
  const double zipf_s = cli.get_double("zipf-s", 0.99);
  const double rw_mix = cli.get_double("rw-mix", 0.95);
  const kv::KvPath path =
      *kv::parse_kv_path(cli.choice("kv-path", "auto", {"auto", "amo", "rpc"}));
  const auto keys = cli.get_int_in<std::size_t>("keys", 4096);
  const auto ops = cli.get_int_in<std::size_t>("ops", 128);
  const int shards = cli.get_int_in<int>("shards", 0);
  const auto capacity = cli.get_int_in<std::size_t>("capacity", 0);
  const double arrival_hz = cli.get_double("arrival", 1.0e6);
  const double burst = cli.get_double("burst", 1.0);
  const auto burst_len = cli.get_int_in<std::size_t>("burst-len", 16);
  const double slo_us = cli.get_double("slo-us", 50.0);
  const bool read_cache = examples::read_cache_flag(cli, "on");
  const auto seed = cli.get_int_in<std::uint64_t>("seed", 1);
  const auto fault_plan = examples::fault_plan_flags(cli);
  const examples::TraceFlags trace(cli);
  cli.reject_unread("kv_server");
  if (!(rw_mix >= 0.0 && rw_mix <= 1.0)) {
    throw std::invalid_argument("--rw-mix must be in [0,1] (got '" +
                                cli.get("rw-mix", "0.95") + "')");
  }

  sim::Engine engine;
  gas::Config config = gas::preset_config(machine, nodes, threads);
  config.tracer = trace.tracer.get();
  gas::Runtime rt(engine, config);
  const auto plan = examples::install_fault_plan(fault_plan, rt);

  async::RpcDomain rpc(rt);
  kv::KvStore::Params store_params;
  if (capacity != 0) store_params.capacity = capacity;
  kv::KvStore store(rt, rpc, kv::ShardMap::over(rt, shards), store_params);

  kv::ServingParams params;
  params.keys = keys;
  params.ops_per_rank = ops;
  params.dist = dist;
  params.zipf_s = zipf_s;
  params.read_fraction = rw_mix;
  params.path = path;
  params.arrival_rate_hz = arrival_hz;
  params.burst = burst;
  params.burst_len = burst_len;
  params.slo_s = slo_us * 1e-6;
  params.read_cache = read_cache;
  params.seed = seed;

  const kv::ServingResult res = kv::run_serving(rt, store, params);

  const kv::KvStats& stats = store.stats();
  std::printf("kv_server: %d threads on %s(%d), %zu keys over %d shards, "
              "%s keys (s=%.2f), rw-mix %.2f, path %s, read-cache %s\n",
              threads, machine.c_str(), nodes, keys,
              store.shard_map().shards(), kv::key_dist_name(dist), zipf_s,
              rw_mix, kv::kv_path_name(path), read_cache ? "on" : "off");
  std::printf("  ops %llu (%llu reads, %llu writes) in %.3f ms virtual "
              "makespan\n",
              static_cast<unsigned long long>(res.ops),
              static_cast<unsigned long long>(res.reads),
              static_cast<unsigned long long>(res.writes),
              res.makespan_s * 1e3);
  std::printf("  latency  p50 %8.2f us   p99 %8.2f us   p99.9 %8.2f us   "
              "mean %8.2f us   max %8.2f us\n",
              res.p50_s * 1e6, res.p99_s * 1e6, res.p999_s * 1e6,
              res.mean_s * 1e6, res.max_s * 1e6);
  std::printf("  load     %.1f kops/s offered/rank, %.1f kops/s served, "
              "%.1f kops/s within %.0f us SLO (%llu/%llu ops)\n",
              arrival_hz / 1e3, res.throughput_ops_s / 1e3,
              res.slo_goodput_ops_s / 1e3, slo_us,
              static_cast<unsigned long long>(res.within_slo),
              static_cast<unsigned long long>(res.ops));
  std::printf("  paths    %llu amo, %llu rpc (%llu probes, %llu retries); "
              "%llu live keys\n",
              static_cast<unsigned long long>(stats.amo_ops),
              static_cast<unsigned long long>(stats.rpc_ops),
              static_cast<unsigned long long>(stats.probes),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(store.live()));
  examples::fault_footer(plan.get());
  if (trace.write("kv_server", nullptr) != 0) return 1;

  // The preload puts every key exactly once and the measured phase never
  // erases: a live count that drifted from the key universe means the slot
  // protocol lost an insert.
  if (store.live() != keys) {
    std::fprintf(stderr, "kv_server: error: %llu live keys != %zu preloaded\n",
                 static_cast<unsigned long long>(store.live()), keys);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main("kv_server", argc, argv, serve);
}
