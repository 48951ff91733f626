#include "fault/plan.hpp"

#include <cstdio>
#include <string_view>

#include "sim/time.hpp"
#include "util/names.hpp"

namespace hupc::fault {

namespace {

// Per-seam stream seeds: fixed salts keep the streams independent so
// shrinking one group never shifts another group's decisions.
constexpr std::uint64_t kSchedSalt = 0x5C4ED01EULL;
constexpr std::uint64_t kMsgSalt = 0x4E57F417ULL;
constexpr std::uint64_t kStealSalt = 0x57EA1BADULL;
constexpr std::uint64_t kAllocSalt = 0xA110CBADULL;
constexpr std::uint64_t kCacheSalt = 0xCAC4ED05ULL;
constexpr std::uint64_t kCompletionSalt = 0xC0D97E7EULL;

// One counter per decision kind a plan makes.
const trace::CounterId kEventJitter = trace::intern("fault.event.jitter");
const trace::CounterId kMsgDelay = trace::intern("fault.msg.delay");
const trace::CounterId kMsgDegrade = trace::intern("fault.msg.degrade");
const trace::CounterId kMsgBlackout = trace::intern("fault.msg.blackout");
const trace::CounterId kStealFail = trace::intern("fault.steal.fail");
const trace::CounterId kAllocFail = trace::intern("fault.alloc.fail");
const trace::CounterId kSpawnThrottle = trace::intern("fault.spawn.throttle");
const trace::CounterId kCacheDrop = trace::intern("fault.cache.drop");
const trace::CounterId kCompletionDelay =
    trace::intern("fault.completion.delay");

std::uint64_t salted(std::uint64_t seed, std::uint64_t salt) {
  util::SplitMix64 sm(seed ^ salt);
  return sm.next();
}

template <class... Args>
void append(std::string& out, const char* fmt, Args... args) {
  char buf[96];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

}  // namespace

bool PlanParams::quiescent() const noexcept {
  return event_jitter_p <= 0.0 && msg_delay_p <= 0.0 &&
         msg_bw_degrade_p <= 0.0 && blackout_node < 0 && steal_fail_p <= 0.0 &&
         spawn_width_cap <= 0 && alloc_fail_after_bytes == 0 &&
         cache_invalidate_p <= 0.0 && completion_delay_p <= 0.0;
}

std::string PlanParams::describe() const {
  std::string out = "plan[" + name + " seed=" + std::to_string(seed);
  if (quiescent()) return out + " quiescent]";
  if (event_jitter_p > 0.0) {
    append(out, " jitter=%.2f/%.0fus", event_jitter_p, event_jitter_max_s * 1e6);
  }
  if (msg_delay_p > 0.0) {
    append(out, " delay=%.2f/%.0fus", msg_delay_p, msg_delay_max_s * 1e6);
  }
  if (msg_bw_degrade_p > 0.0) {
    append(out, " bw-dip=%.2f/floor %.2f", msg_bw_degrade_p, msg_bw_floor);
  }
  if (blackout_node >= 0) {
    out += " blackout=node " + std::to_string(blackout_node);
    append(out, " [%.1f,%.1f]ms", blackout_start_s * 1e3,
           (blackout_start_s + blackout_duration_s) * 1e3);
  }
  if (steal_fail_p > 0.0) append(out, " steal-fail=%.2f", steal_fail_p);
  if (spawn_width_cap > 0) {
    out += " spawn-cap=" + std::to_string(spawn_width_cap);
  }
  if (alloc_fail_after_bytes > 0) {
    append(out, " heap-pressure=%.2f after %.0f KiB", alloc_fail_p,
           static_cast<double>(alloc_fail_after_bytes) / 1024.0);
  }
  if (cache_invalidate_p > 0.0) {
    append(out, " cache-storm=%.2f", cache_invalidate_p);
  }
  if (completion_delay_p > 0.0) {
    append(out, " completion-storm=%.2f/%.0fus", completion_delay_p,
           completion_delay_max_s * 1e6);
  }
  return out + "]";
}

FaultPlan::FaultPlan(PlanParams params)
    : params_(std::move(params)),
      sched_rng_(salted(params_.seed, kSchedSalt)),
      msg_rng_(salted(params_.seed, kMsgSalt)),
      steal_rng_(salted(params_.seed, kStealSalt)),
      alloc_rng_(salted(params_.seed, kAllocSalt)),
      cache_rng_(salted(params_.seed, kCacheSalt)),
      completion_rng_(salted(params_.seed, kCompletionSalt)) {}

void FaultPlan::install(gas::Runtime& rt) {
  engine_ = &rt.engine();
  Hooks hooks;
  if (params_.event_jitter_p > 0.0) hooks.schedule = this;
  if (params_.msg_delay_p > 0.0 || params_.msg_bw_degrade_p > 0.0 ||
      params_.blackout_node >= 0) {
    hooks.message = this;
  }
  if (params_.steal_fail_p > 0.0) hooks.steal = this;
  if (params_.alloc_fail_after_bytes > 0) hooks.alloc = this;
  if (params_.spawn_width_cap > 0) hooks.spawn = this;
  if (params_.cache_invalidate_p > 0.0) hooks.cache = this;
  if (params_.completion_delay_p > 0.0) hooks.completion = this;
  rt.install_faults(hooks);
}

void FaultPlan::count(trace::CounterId id, int rank) noexcept {
  if (engine_ != nullptr) engine_->counters().add(id, rank);
}

std::uint64_t FaultPlan::injected() const {
  if (engine_ == nullptr) return 0;
  std::uint64_t total = 0;
  for (const trace::CounterId id :
       {kEventJitter, kMsgDelay, kMsgDegrade, kMsgBlackout, kStealFail,
        kAllocFail, kSpawnThrottle, kCacheDrop, kCompletionDelay}) {
    total += engine_->counters().total(id);
  }
  return total;
}

std::int64_t FaultPlan::perturb_schedule(std::int64_t /*now*/,
                                         std::int64_t at) noexcept {
  if (sched_rng_.uniform() >= params_.event_jitter_p) return at;
  count(kEventJitter, trace::kEngineRank);
  return at + sim::from_seconds(sched_rng_.uniform() *
                                params_.event_jitter_max_s);
}

MessageMutation FaultPlan::on_message(int rank, int src_node,
                                      int dst_node) noexcept {
  MessageMutation mut;
  if (params_.blackout_node >= 0 && engine_ != nullptr &&
      (src_node == params_.blackout_node || dst_node == params_.blackout_node)) {
    const double now = sim::to_seconds(engine_->now());
    const double end = params_.blackout_start_s + params_.blackout_duration_s;
    if (now >= params_.blackout_start_s && now < end) {
      // The dark link buffers the message until recovery.
      mut.hold_s = end - now;
      count(kMsgBlackout, rank);
    }
  }
  if (params_.msg_delay_p > 0.0 &&
      msg_rng_.uniform() < params_.msg_delay_p) {
    mut.hold_s += msg_rng_.uniform() * params_.msg_delay_max_s;
    count(kMsgDelay, rank);
  }
  if (params_.msg_bw_degrade_p > 0.0 &&
      msg_rng_.uniform() < params_.msg_bw_degrade_p) {
    mut.bw_scale =
        params_.msg_bw_floor +
        msg_rng_.uniform() * (1.0 - params_.msg_bw_floor);
    count(kMsgDegrade, rank);
  }
  return mut;
}

bool FaultPlan::fail_steal(int thief, int /*victim*/) noexcept {
  if (steal_rng_.uniform() >= params_.steal_fail_p) return false;
  count(kStealFail, thief);
  return true;
}

bool FaultPlan::fail_alloc(int owner, std::size_t /*bytes*/,
                           std::size_t allocated) noexcept {
  if (allocated < params_.alloc_fail_after_bytes) return false;
  if (alloc_rng_.uniform() >= params_.alloc_fail_p) return false;
  count(kAllocFail, owner);
  return true;
}

int FaultPlan::clamp_spawn_width(int rank, int requested) noexcept {
  if (params_.spawn_width_cap <= 0 || requested <= params_.spawn_width_cap) {
    return requested;
  }
  count(kSpawnThrottle, rank);
  return params_.spawn_width_cap;
}

bool FaultPlan::drop_cached_line(int rank) noexcept {
  if (cache_rng_.uniform() >= params_.cache_invalidate_p) return false;
  count(kCacheDrop, rank);
  return true;
}

std::int64_t FaultPlan::delay_completion(int rank) noexcept {
  if (completion_rng_.uniform() >= params_.completion_delay_p) return 0;
  count(kCompletionDelay, rank);
  return sim::from_seconds(completion_rng_.uniform() *
                           params_.completion_delay_max_s);
}

namespace {

/// The seed's draws for a template's magnitudes.
struct Draws {
  util::SplitMix64 sm;
  std::uint64_t next() { return sm.next(); }
  double uniform() { return static_cast<double>(sm.next() >> 11) * 0x1.0p-53; }
  double in(double lo, double hi) { return lo + uniform() * (hi - lo); }
};

struct Template {
  std::string_view name;
  void (*fill)(PlanParams&, Draws&);
};

// Magnitudes are drawn from the seed so every seed explores a different
// member of the template family, reproducibly.
constexpr Template kTemplates[] = {
    {"none", [](PlanParams&, Draws&) {}},
    {"jitter",
     [](PlanParams& p, Draws& d) {
       p.event_jitter_p = d.in(0.05, 0.30);
       p.event_jitter_max_s = d.in(1e-6, 10e-6);
     }},
    {"latency-spike",
     [](PlanParams& p, Draws& d) {
       p.msg_delay_p = d.in(0.10, 0.50);
       p.msg_delay_max_s = d.in(10e-6, 200e-6);
     }},
    {"bw-dip",
     [](PlanParams& p, Draws& d) {
       p.msg_bw_degrade_p = d.in(0.20, 0.80);
       p.msg_bw_floor = d.in(0.02, 0.30);
     }},
    {"blackout",
     [](PlanParams& p, Draws& d) {
       p.blackout_node = static_cast<int>(d.next() % 4);
       p.blackout_start_s = d.in(0.2e-3, 2e-3);
       p.blackout_duration_s = d.in(0.5e-3, 3e-3);
     }},
    {"steal-storm",
     [](PlanParams& p, Draws& d) {
       p.steal_fail_p = d.in(0.30, 0.80);
     }},
    {"spawn-throttle",
     [](PlanParams& p, Draws& d) {
       p.spawn_width_cap = 1 + static_cast<int>(d.next() % 2);
     }},
    {"heap-pressure",
     [](PlanParams& p, Draws& d) {
       p.alloc_fail_after_bytes =
           static_cast<std::size_t>(d.in(1.0, 32.0) * 1024 * 1024);
       p.alloc_fail_p = d.in(0.20, 1.00);
     }},
    {"cache-storm",
     [](PlanParams& p, Draws& d) {
       p.cache_invalidate_p = d.in(0.20, 0.90);
     }},
    {"completion-storm",
     [](PlanParams& p, Draws& d) {
       p.completion_delay_p = d.in(0.20, 0.60);
       p.completion_delay_max_s = d.in(5e-6, 80e-6);
     }},
    {"team-storm",
     [](PlanParams& p, Draws& d) {
       // Collectives stress: jitter reorders ready events so team members hit
       // a collective in every arrival order, message delays skew the tree
       // levels, and one darkened node forces leader traffic to queue — the
       // combination hierarchical algorithms are most sensitive to.
       p.event_jitter_p = d.in(0.10, 0.40);
       p.event_jitter_max_s = d.in(1e-6, 8e-6);
       p.msg_delay_p = d.in(0.15, 0.50);
       p.msg_delay_max_s = d.in(10e-6, 150e-6);
       p.blackout_node = static_cast<int>(d.next() % 2);  // fuzz runs 2 nodes
       p.blackout_start_s = d.in(0.05e-3, 0.5e-3);
       p.blackout_duration_s = d.in(0.2e-3, 1.5e-3);
     }},
    {"vis-storm",
     [](PlanParams& p, Draws& d) {
       // Packed-transfer stress: jitter + delivery delays reorder the region
       // streams of concurrent strided/indexed transfers, bandwidth dips
       // stretch the large packed messages (where a footprint-accounting bug
       // would show as lost or double-counted regions), and cache-line drops
       // force strided prefetches to refill mid-run. Counts and payloads must
       // conserve through all of it.
       p.event_jitter_p = d.in(0.05, 0.25);
       p.event_jitter_max_s = d.in(1e-6, 6e-6);
       p.msg_delay_p = d.in(0.10, 0.40);
       p.msg_delay_max_s = d.in(10e-6, 120e-6);
       p.msg_bw_degrade_p = d.in(0.10, 0.50);
       p.msg_bw_floor = d.in(0.05, 0.40);
       p.cache_invalidate_p = d.in(0.20, 0.80);
     }},
    {"kv-storm",
     [](PlanParams& p, Draws& d) {
       // KV serving stress: jitter perturbs the open-loop arrival process and
       // the claim-protocol backoffs (widening busy windows so CAS races and
       // retries actually happen), message delays stretch both the
       // fine-grained AMO round trips and the RPC request/reply pairs,
       // completion holds lean on launch_async's future resolution, and
       // cache-line drops force hot-key reads back to the wire. Acked puts
       // must stay readable and shard counts must conserve through all of it.
       p.event_jitter_p = d.in(0.10, 0.40);
       p.event_jitter_max_s = d.in(2e-6, 20e-6);
       p.msg_delay_p = d.in(0.10, 0.40);
       p.msg_delay_max_s = d.in(10e-6, 120e-6);
       p.completion_delay_p = d.in(0.15, 0.50);
       p.completion_delay_max_s = d.in(5e-6, 60e-6);
       p.cache_invalidate_p = d.in(0.10, 0.60);
     }},
    {"mixed",
     [](PlanParams& p, Draws& d) {
       p.event_jitter_p = d.in(0.05, 0.20);
       p.event_jitter_max_s = d.in(1e-6, 5e-6);
       p.msg_delay_p = d.in(0.10, 0.30);
       p.msg_delay_max_s = d.in(10e-6, 100e-6);
       p.msg_bw_degrade_p = d.in(0.10, 0.50);
       p.msg_bw_floor = d.in(0.05, 0.40);
       p.steal_fail_p = d.in(0.10, 0.50);
     }},
};

}  // namespace

const std::vector<std::string>& plan_template_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all;
    for (const Template& t : kTemplates) all.emplace_back(t.name);
    return all;
  }();
  return names;
}

PlanParams plan_template(const std::string& name, std::uint64_t seed) {
  const Template& t = util::lookup(kTemplates, "fault plan template", name);
  Draws draws{util::SplitMix64(seed ^ 0x7E3A917EULL)};
  PlanParams p;
  p.seed = seed;
  p.name = name;
  t.fill(p, draws);
  return p;
}

}  // namespace hupc::fault
