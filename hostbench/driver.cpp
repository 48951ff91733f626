// hostbench_driver: one run of the host-cost benchmark (see README.md here).
//
// A run simulates one workload once in this process: set-up, simulate,
// verify, teardown. The driver reaches the libraries only through their
// public APIs and times its own calls into them with host-clock spans, so a
// span names the layer its seconds went to. Before and after the run it
// times a fixed host-only calibration kernel, so run.py can tell how fast
// the host was at the time. It prints one JSON object on stdout: host times,
// calibration times and resident-memory samples, exact layer counts, the
// modeled outputs run.py compares against recorded values, the structural
// checks made here, and the span list.
//
//   hostbench_driver --workload=uts_wide|kv_read|kv_write --input-seed=N
//                    [--run-id=N] [--trace] [--oracle]
//
// --input-seed is the generated input: the KV request-plan seed, or the
// UTS victim-selection seed. --trace attaches a trace::Tracer (the
// per-layer run) and times every UTS expand. --oracle adds the check that
// needs an independent recomputation, the sequential uts::enumerate node
// count; run.py --record asks for it, and the per-run checks compare
// against the count it stored.
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "async/rpc.hpp"
#include "gas/gas.hpp"
#include "kv/shard_map.hpp"
#include "kv/store.hpp"
#include "kv/workload.hpp"
#include "net/conduit.hpp"
#include "perf/json.hpp"
#include "sched/work_stealing.hpp"
#include "sim/sim.hpp"
#include "topo/machine.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "uts/tree.hpp"

namespace {

using namespace hupc;  // NOLINT
using Clock = std::chrono::steady_clock;
using perf::Json;

constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resident set size now (MiB).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

/// Peak resident set size of this process so far (MiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- host-speed calibration -------------------------------------------------

/// Times a fixed kernel that uses no HUPC code, so no change to the
/// simulator can move it; only the speed of the host at the moment does.
/// Its parts stand for the kinds of work a run does:
///  - `build`: shuffle a random cycle through 16 MiB (scattered writes);
///  - `fault`: map, zero and unmap fresh pages, as a rank's first heap
///    chunk does in set-up;
///  - `chase`: follow that cycle, beyond L2, as event-queue and
///    coroutine-frame accesses do; `chase_l2` the same through 1 MiB;
///  - `hash`: a dependent chain of integer mixing, as the UTS expand and
///    the engine's bookkeeping do.
/// `build` runs once; every other part runs `kReps` times and keeps its
/// fastest time.
class Calibration {
 public:
  Json measure() {
    const auto t0 = Clock::now();
    std::vector<std::uint32_t> cycle = random_cycle(kCycleEntries);
    const double build_s = seconds_since(t0);
    std::vector<std::uint32_t> small = random_cycle(kSmallEntries);
    Json out = Json::object();
    out.set("build_s", build_s);
    out.set("fault_s", fastest([this] { fault(); }));
    out.set("chase_s", fastest([this, &cycle] { chase(cycle); }));
    out.set("chase_l2_s", fastest([this, &small] { chase(small); }));
    out.set("hash_s", fastest([this] { hash(); }));
    return out;
  }

 private:
  static constexpr int kReps = 3;
  static constexpr std::size_t kFaultBytes = std::size_t{32} << 20;
  static constexpr std::size_t kCycleEntries = std::size_t{4} << 20;  // 16 MiB
  static constexpr std::size_t kSmallEntries = std::size_t{1} << 18;  // 1 MiB
  static constexpr std::size_t kChaseSteps = std::size_t{1} << 18;
  static constexpr std::uint64_t kHashSteps = std::uint64_t{1} << 23;

  template <class F>
  double fastest(F&& f) {
    double best = 1e30;
    for (int i = 0; i < kReps; ++i) {
      const auto t0 = Clock::now();
      f();
      best = std::min(best, seconds_since(t0));
    }
    return best;
  }

  static std::uint64_t splitmix(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// One cycle through every entry (Sattolo's shuffle of a fixed seed).
  static std::vector<std::uint32_t> random_cycle(std::size_t entries) {
    std::vector<std::uint32_t> next(entries);
    for (std::size_t i = 0; i < next.size(); ++i) {
      next[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t state = 7;
    for (std::size_t i = next.size() - 1; i > 0; --i) {
      std::swap(next[i], next[splitmix(state) % i]);
    }
    return next;
  }

  void fault() {
    void* p = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return;
    std::memset(p, 0, kFaultBytes);
    sink_ = sink_ + static_cast<const volatile char*>(p)[kFaultBytes - 1];
    munmap(p, kFaultBytes);
  }

  void chase(const std::vector<std::uint32_t>& next) {
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < kChaseSteps; ++i) at = next[at];
    sink_ = sink_ + at;
  }

  void hash() {
    std::uint64_t x = 1;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < kHashSteps; ++i) acc ^= splitmix(x);
    sink_ = sink_ + acc;
  }

  volatile std::uint64_t sink_ = 0;
};

/// Host-clock spans of one run, kept in memory until the run ends. Span 0
/// is `run`; every other span names its parent.
class Spans {
 public:
  explicit Spans(std::uint64_t run_id) : run_id_(run_id), epoch_(Clock::now()) {}

  int begin(const char* name, int parent) {
    spans_.push_back({name, parent, now_ns(), -1, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { at(id).end_ns = now_ns(); }
  /// An aggregated span: `count` calls totalling `total_ns`, recorded as
  /// one entry instead of one span per call.
  void aggregate(const char* name, int parent, std::uint64_t count,
                 std::int64_t total_ns) {
    spans_.push_back({name, parent, -1, total_ns, count});
  }
  [[nodiscard]] double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  [[nodiscard]] Json json() const {
    Json out = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json o = Json::object();
      o.set("name", s.name);
      o.set("id", static_cast<std::uint64_t>(i));
      o.set("parent", s.parent);
      o.set("run", run_id_);
      if (s.start_ns < 0) {
        o.set("calls", s.calls);
        o.set("total_ns", s.end_ns);
      } else {
        o.set("start_ns", s.start_ns);
        o.set("end_ns", s.end_ns);
      }
      out.push_back(std::move(o));
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;  // -1 marks an aggregate
    std::int64_t end_ns;    // total_ns for an aggregate
    std::uint64_t calls;
  };
  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  std::uint64_t run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

struct Options {
  std::string workload;
  std::uint64_t input_seed = 0;
  bool traced = false;
  bool oracle = false;
};

/// Everything one run reports. `host` holds measured (noisy) values;
/// `counts` exact layer counts that must repeat for the same input;
/// `modeled` the simulated outputs checked against recorded values.
struct Report {
  explicit Report(std::uint64_t run_id) : spans(run_id) {}

  Spans spans;
  Json host = Json::object();
  Json counts = Json::object();
  Json modeled = Json::object();
  Json checks = Json::object();
  std::uint64_t work_units = 0;
  int failed_checks = 0;

  void check(const std::string& name, bool ok) {
    checks.set(name, ok);
    if (!ok) {
      ++failed_checks;
      std::fprintf(stderr, "hostbench_driver: check failed: %s\n",
                   name.c_str());
    }
  }
};

/// Layer counts every workload shares: engine, network and read cache
/// (summed over ranks), plus the tracer's counters in a traced run.
void common_counts(Report& rep, gas::Runtime& rt, const trace::Tracer* tracer) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int r = 0; r < rt.threads(); ++r) {
    if (const comm::CacheStats* cs = rt.thread(r).read_cache_stats()) {
      hits += cs->hits;
      misses += cs->misses;
    }
  }
  rep.counts.set("sim.events", rt.engine().events_executed());
  rep.counts.set("net.msgs", rt.network().total_messages());
  rep.counts.set("net.bytes", rt.network().total_bytes());
  rep.counts.set("comm.cache_hits", hits);
  rep.counts.set("comm.cache_misses", misses);
  if (tracer == nullptr) return;
  const trace::Summary summary = tracer->summary();
  std::uint64_t accesses = 0;
  for (const auto& [name, per_rank] : summary.counters) {
    if (name.rfind("gas.access.", 0) != 0) continue;
    for (const std::uint64_t v : per_rank) accesses += v;
  }
  rep.counts.set("gas.accesses", accesses);
  rep.counts.set("gas.lock_acquires", tracer->counter_total("gas.lock.acquire"));
  rep.counts.set("async.futures", tracer->counter_total("async.copy.issued"));
  rep.counts.set("trace.records", tracer->recorded());
}

// --- uts_wide ---------------------------------------------------------------

/// T3 binomial tree of root seed 42 (490,425 nodes) on 256 ranks (32
/// Pyramid nodes x 8), processes backend, IB-DDR, local-first victims with
/// rapid diffusion, granularity 8. The input seed seeds victim selection;
/// the tree stays fixed because T3 size and depth swing by orders of
/// magnitude across root seeds, which would make host cost a property of
/// the seed.
void run_uts_wide(const Options& opt, Report& rep, int run_span) {
  constexpr int kNodes = 32;
  constexpr int kThreads = 256;
  constexpr std::uint32_t kRootSeed = 42;
  Spans& sp = rep.spans;
  const double rss0 = rss_mb();

  struct Expands {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  } expands;
  uts::TreeParams tree;
  tree.root_seed = kRootSeed;
  using Process = sched::WorkStealing<uts::Node>::Process;
  Process process;
  if (opt.traced) {
    process = [&tree, &expands](const uts::Node& n,
                                std::vector<uts::Node>& out) {
      const auto t0 = Clock::now();
      uts::expand(tree, n, out);
      expands.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
      ++expands.calls;
    };
  } else {
    process = [&tree](const uts::Node& n, std::vector<uts::Node>& out) {
      uts::expand(tree, n, out);
    };
  }

  // Declared in teardown order: the tracer outlives the runtime, the
  // runtime outlives the stealer.
  std::unique_ptr<trace::Tracer> tracer;
  if (opt.traced) tracer = std::make_unique<trace::Tracer>();
  auto engine = std::make_unique<sim::Engine>();
  std::unique_ptr<gas::Runtime> rt;
  std::unique_ptr<sched::WorkStealing<uts::Node>> ws;

  const int setup = sp.begin("setup", run_span);
  gas::Config config;
  config.machine = topo::pyramid(kNodes);
  config.conduit = net::ib_ddr();
  config.threads = kThreads;
  config.backend = gas::Backend::processes;
  config.tracer = tracer.get();
  const int rt_span = sp.begin("gas.runtime", setup);
  rt = std::make_unique<gas::Runtime>(*engine, config);
  sp.end(rt_span);
  const double rss_rt = rss_mb();

  sched::StealParams params;
  params.policy = sched::VictimPolicy::local_first;
  params.rapid_diffusion = true;
  params.granularity = 8;
  params.chunk = 8;
  params.seed = opt.input_seed;
  const int ws_span = sp.begin("sched.work_stealing", setup);
  ws = std::make_unique<sched::WorkStealing<uts::Node>>(*rt, params,
                                                        std::move(process));
  sp.end(ws_span);
  const double rss_ws = rss_mb();
  ws->seed_work(0, {uts::root_node(tree)});
  rt->spmd([w = ws.get()](gas::Thread& t) -> sim::Task<void> {
    co_await w->run(t);
  });
  const std::uint64_t heap_bytes = rt->heap().bytes_allocated();
  sp.end(setup);
  const double rss_setup = rss_mb();

  const int simulate = sp.begin("simulate", run_span);
  rt->run_to_completion();
  sp.end(simulate);
  const double rss_sim = rss_mb();
  sp.aggregate("uts.expand", simulate, expands.calls, expands.ns);

  const int verify = sp.begin("verify", run_span);
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  std::uint64_t failed_probes = 0;
  for (int r = 0; r < kThreads; ++r) {
    local += ws->stats(r).local_steals;
    remote += ws->stats(r).remote_steals;
    failed_probes += ws->stats(r).failed_probes;
  }
  const std::uint64_t nodes = ws->total_processed();
  rep.work_units = nodes;
  rep.check("uts.outstanding_zero", ws->outstanding() == 0);
  bool stacks_empty = true;
  for (int r = 0; r < kThreads; ++r) {
    stacks_empty = stacks_empty && ws->stack(r).local_count() == 0;
  }
  rep.check("uts.stacks_empty", stacks_empty);
  if (opt.oracle) {
    rep.check("uts.oracle_nodes", uts::enumerate(tree).nodes == nodes);
  }
  rep.modeled.set("nodes", nodes);
  rep.modeled.set("makespan_ns", static_cast<std::uint64_t>(engine->now()));
  rep.modeled.set("local_steals", local);
  rep.modeled.set("remote_steals", remote);
  rep.modeled.set("net_msgs", rt->network().total_messages());
  common_counts(rep, *rt, tracer.get());
  rep.counts.set("gas.heap_bytes", heap_bytes);
  rep.counts.set("sched.steal_attempts", local + remote + failed_probes);
  rep.counts.set("sched.steal_successes", local + remote);
  rep.counts.set("uts.nodes", nodes);
  sp.end(verify);

  const int teardown = sp.begin("teardown", run_span);
  ws.reset();
  rt.reset();
  engine.reset();
  tracer.reset();
  sp.end(teardown);

  rep.host.set("setup_s", sp.seconds(setup));
  rep.host.set("simulate_s", sp.seconds(simulate));
  rep.host.set("verify_s", sp.seconds(verify));
  rep.host.set("teardown_s", sp.seconds(teardown));
  rep.host.set("gas.runtime_setup_s", sp.seconds(rt_span));
  rep.host.set("sched.setup_s", sp.seconds(ws_span));
  rep.host.set("sched.setup_rss_mb", rss_ws - rss_rt);
  rep.host.set("gas.setup_rss_mb", rss_setup - rss0);
  rep.host.set("sim.run_rss_mb", rss_sim - rss_setup);
  rep.host.set("uts.expand_s", static_cast<double>(expands.ns) * 1e-9);
  rep.host.set("uts.expands", expands.calls);
}

// --- kv_read / kv_write -----------------------------------------------------

/// Order-independent digest of the store's live (key, value) pairs.
std::uint64_t snapshot_digest(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const auto& [k, v] : pairs) h = kv::mix64(kv::mix64(h ^ k) ^ v);
  return h;
}

/// Sharded KV store on 64 ranks (8 Lehman nodes x 8), IB-QDR, 4096 keys,
/// Zipf s=0.99, `auto` path, read cache on, open-loop Poisson arrivals at
/// 100 kops/s per rank. `read_fraction` is the get share of the mix.
void run_kv(const Options& opt, double read_fraction, Report& rep,
            int run_span) {
  constexpr int kNodes = 8;
  constexpr int kThreads = 64;
  constexpr std::size_t kKeys = 4096;
  constexpr std::size_t kOpsPerRank = 16384;
  Spans& sp = rep.spans;
  const double rss0 = rss_mb();

  std::unique_ptr<trace::Tracer> tracer;
  if (opt.traced) tracer = std::make_unique<trace::Tracer>();
  auto engine = std::make_unique<sim::Engine>();
  std::unique_ptr<gas::Runtime> rt;
  std::unique_ptr<async::RpcDomain> rpc;
  std::unique_ptr<kv::KvStore> store;

  const int setup = sp.begin("setup", run_span);
  gas::Config config;
  config.machine = topo::lehman(kNodes);
  config.conduit = net::ib_qdr();
  config.threads = kThreads;
  config.backend = gas::Backend::processes;
  config.tracer = tracer.get();
  const int rt_span = sp.begin("gas.runtime", setup);
  rt = std::make_unique<gas::Runtime>(*engine, config);
  sp.end(rt_span);
  const double rss_rt = rss_mb();
  // The RPC domain is the store's owner-side transport; it is built with
  // the store and counted in its span.
  const int store_span = sp.begin("kv.store", setup);
  rpc = std::make_unique<async::RpcDomain>(*rt);
  kv::KvStore::Params store_params;
  store_params.capacity = 1024;
  store = std::make_unique<kv::KvStore>(*rt, *rpc, kv::ShardMap::over(*rt),
                                        store_params);
  sp.end(store_span);
  const std::uint64_t heap_bytes = rt->heap().bytes_allocated();
  sp.end(setup);
  const double rss_setup = rss_mb();

  kv::ServingParams params;
  params.keys = kKeys;
  params.ops_per_rank = kOpsPerRank;
  params.dist = kv::KeyDist::zipfian;
  params.zipf_s = 0.99;
  params.read_fraction = read_fraction;
  params.path = kv::KvPath::automatic;
  params.arrival_rate_hz = 100.0e3;
  params.read_cache = true;
  params.seed = opt.input_seed;
  const int simulate = sp.begin("simulate", run_span);
  const kv::ServingResult res = kv::run_serving(*rt, *store, params);
  sp.end(simulate);
  const double rss_sim = rss_mb();

  const int verify = sp.begin("verify", run_span);
  const std::uint64_t planned = std::uint64_t{kThreads} * kOpsPerRank;
  rep.work_units = res.ops;
  rep.check("kv.ops_completed", res.ops == planned);
  rep.check("kv.mix_accounted", res.reads + res.writes == planned);
  rep.check("kv.live_keys", store->live() == kKeys);
  auto pairs = store->snapshot();
  std::vector<bool> seen(kKeys, false);
  bool keys_ok = pairs.size() == kKeys;
  for (const auto& kvp : pairs) {
    keys_ok = keys_ok && kvp.first < kKeys && !seen[kvp.first];
    if (kvp.first < kKeys) seen[kvp.first] = true;
  }
  rep.check("kv.snapshot_keys", keys_ok);
  bool shards_ok = true;
  for (int s = 0; s < store->shard_map().shards(); ++s) {
    shards_ok = shards_ok && store->shard_live(s) == store->shard_live_recount(s);
  }
  rep.check("kv.shard_live_conserved", shards_ok);
  const kv::KvStats& st = store->stats();
  char digest[20];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(snapshot_digest(std::move(pairs))));
  rep.modeled.set("ops", res.ops);
  rep.modeled.set("planned", planned);
  rep.modeled.set("live", store->live());
  rep.modeled.set("p50_s", res.p50_s);
  rep.modeled.set("p99_s", res.p99_s);
  rep.modeled.set("p999_s", res.p999_s);
  rep.modeled.set("makespan_s", res.makespan_s);
  rep.modeled.set("amo_ops", st.amo_ops);
  rep.modeled.set("rpc_ops", st.rpc_ops);
  rep.modeled.set("probes", st.probes);
  rep.modeled.set("retries", st.retries);
  rep.modeled.set("net_msgs", rt->network().total_messages());
  rep.modeled.set("snapshot_digest", digest);
  common_counts(rep, *rt, tracer.get());
  rep.counts.set("gas.heap_bytes", heap_bytes);
  rep.counts.set("async.rpc_sent", rpc->stats().sent);
  rep.counts.set("kv.ops", st.total_ops());
  rep.counts.set("kv.amo_ops", st.amo_ops);
  rep.counts.set("kv.rpc_ops", st.rpc_ops);
  rep.counts.set("kv.probes", st.probes);
  rep.counts.set("kv.retries", st.retries);
  sp.end(verify);

  const int teardown = sp.begin("teardown", run_span);
  store.reset();
  rpc.reset();
  rt.reset();
  engine.reset();
  tracer.reset();
  sp.end(teardown);

  rep.host.set("setup_s", sp.seconds(setup));
  rep.host.set("simulate_s", sp.seconds(simulate));
  rep.host.set("verify_s", sp.seconds(verify));
  rep.host.set("teardown_s", sp.seconds(teardown));
  rep.host.set("gas.runtime_setup_s", sp.seconds(rt_span));
  rep.host.set("kv.setup_s", sp.seconds(store_span));
  rep.host.set("kv.setup_rss_mb", rss_setup - rss_rt);
  rep.host.set("gas.setup_rss_mb", rss_setup - rss0);
  rep.host.set("sim.run_rss_mb", rss_sim - rss_setup);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  Options opt;
  opt.workload = cli.get("workload", "");
  opt.input_seed = static_cast<std::uint64_t>(cli.get_int("input-seed", 1));
  opt.traced = cli.get_bool("trace", false);
  opt.oracle = cli.get_bool("oracle", false);
  const auto run_id = static_cast<std::uint64_t>(cli.get_int("run-id", 0));
  cli.reject_unread("hostbench_driver");
  if (opt.workload != "uts_wide" && opt.workload != "kv_read" &&
      opt.workload != "kv_write") {
    std::fprintf(stderr,
                 "hostbench_driver: error: unknown --workload '%s' "
                 "(expected uts_wide|kv_read|kv_write)\n",
                 opt.workload.c_str());
    return 2;
  }

  // The calibration kernel runs right before and right after the run, on
  // the same CPU, and its memory is unmapped before the run starts.
  Calibration calibration;
  Json calib = Json::object();
  calib.set("before", calibration.measure());

  Report rep(run_id);
  const int run_span = rep.spans.begin("run", -1);
  if (opt.workload == "uts_wide") {
    run_uts_wide(opt, rep, run_span);
  } else {
    run_kv(opt, opt.workload == "kv_read" ? 0.95 : 0.50, rep, run_span);
  }
  rep.spans.end(run_span);
  rep.host.set("wall_s", rep.spans.seconds(run_span));
  rep.host.set("peak_rss_mb", peak_rss_mb());
  calib.set("after", calibration.measure());

  Json out = Json::object();
  out.set("workload", opt.workload);
  out.set("input_seed", opt.input_seed);
  out.set("run_id", run_id);
  out.set("traced", opt.traced);
  out.set("build_type", HOSTBENCH_BUILD_TYPE);
  out.set("trace_level", trace::kTraceLevel);
  out.set("work_units", rep.work_units);
  out.set("host", std::move(rep.host));
  out.set("calibration", std::move(calib));
  out.set("counts", std::move(rep.counts));
  out.set("modeled", std::move(rep.modeled));
  out.set("checks", std::move(rep.checks));
  out.set("spans", rep.spans.json());
  std::printf("%s\n", out.dump().c_str());
  return rep.failed_checks == 0 ? 0 : 1;
}
