#include "core/subthread.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.hpp"

namespace hupc::core {

namespace {
const trace::CounterId kRegion = trace::intern("core.region");
const trace::CounterId kTask = trace::intern("core.task");
const trace::CounterId kSpawnThrottle = trace::intern("fault.spawn.throttle");
}  // namespace

SubModelParams params_for(SubModel model) {
  switch (model) {
    case SubModel::openmp:
      // GCC libgomp-class fork/join; fitted so hybrid FT tracks the
      // thesis's "OpenMP performs best" ordering (§4.3.3.3).
      return SubModelParams{2.0e-6, 0.3e-6, 1.0, 0.0};
    case SubModel::thread_pool:
      // The in-house prototype: central task queue costs a bit more per
      // task than static OpenMP worksharing.
      return SubModelParams{2.5e-6, 0.6e-6, 1.0, 0.0};
    case SubModel::cilk:
      // Cilk++ build 8503: ~10% kernel slowdown + a constant ~0.2 s lag
      // observed on single-sub-thread configurations (§4.3.3.3).
      return SubModelParams{3.0e-6, 0.8e-6, 1.10, 0.2};
  }
  return SubModelParams{2.0e-6, 0.3e-6, 1.0, 0.0};
}

SubPool::SubPool(gas::Thread& master, int width, SubModel model,
                 ThreadSafety safety)
    : master_(&master),
      model_(model),
      params_(params_for(model)),
      safety_(safety) {
  if (width < 1) {
    throw std::invalid_argument("SubPool: width must be >= 1 (got " +
                                std::to_string(width) + ")");
  }
  auto& rt = master.runtime();
  // Fault injection: a spawn-throttle hook can clamp the pool below the
  // requested width (slot exhaustion / a crowded node). The pool still
  // works at the reduced width; callers observe it via width().
  if (fault::SpawnHook* throttle = rt.fault_hooks().spawn) {
    const int clamped = throttle->clamp_spawn_width(width);
    if (clamped >= 1 && clamped < width) {
      rt.counters().add(kSpawnThrottle, master.rank());
      width = clamped;
    }
  }
  serialize_gate_ = std::make_unique<sim::Mutex>(rt.engine());
  contexts_.reserve(static_cast<std::size_t>(width));
  // Context 0 runs on the master's own slot (the master *becomes* worker 0
  // inside a region, as in OpenMP).
  contexts_.push_back(std::make_unique<SubContext>(*this, 0, master.loc()));
  for (int i = 1; i < width; ++i) {
    const topo::HwLoc slot = rt.slots().allocate_near(master.loc());
    allocated_.push_back(slot);
    contexts_.push_back(std::make_unique<SubContext>(*this, i, slot));
  }
}

SubPool::~SubPool() {
  auto& slots = master_->runtime().slots();
  for (const auto& loc : allocated_) slots.unbind(loc);
}

sim::Task<void> SubPool::region_prologue() {
  auto& engine = master_->runtime().engine();
  if (!started_) {
    started_ = true;
    co_await sim::delay(engine, sim::from_seconds(params_.startup_lag_s));
  }
  co_await sim::delay(engine, sim::from_seconds(params_.region_overhead_s));
}

sim::Task<void> SubPool::parallel_for(std::size_t n, Schedule schedule,
                                      ForBody body, std::size_t chunk) {
  // Region fork at B, implicit join at E (scope exit after the joins).
  HUPC_TRACE_SCOPE(master_->runtime().tracer(), trace::Category::core,
                   "region", master_->rank(), n,
                   static_cast<std::uint64_t>(width()));
  master_->runtime().counters().add(kRegion, master_->rank());
  co_await region_prologue();
  if (n == 0) co_return;
  live_bodies_.push_back(std::move(body));
  const ForBody& fn = live_bodies_.back();

  auto& engine = master_->runtime().engine();
  const auto width = static_cast<std::size_t>(this->width());
  const double task_cost = params_.task_overhead_s;

  // Shared trip counter for dynamic/guided scheduling.
  auto next = std::make_shared<std::size_t>(0);

  std::vector<async::future<>> workers;
  workers.reserve(width);
  for (std::size_t w = 0; w < width; ++w) {
    SubContext& ctx = *contexts_[w];
    switch (schedule) {
      case Schedule::static_chunks: {
        // Contiguous near-equal ranges, like OpenMP schedule(static).
        const std::size_t lo = n * w / width;
        const std::size_t hi = n * (w + 1) / width;
        if (lo == hi) break;
        workers.push_back(sim::spawn(
            engine, [](SubContext& c, const ForBody& f, std::size_t a,
                       std::size_t b, double oh) -> sim::Task<void> {
              c.master().runtime().counters().add(kTask, c.master().rank());
              co_await sim::delay(c.master().runtime().engine(),
                                  sim::from_seconds(oh));
              co_await f(c, a, b);
            }(ctx, fn, lo, hi, task_cost)));
        break;
      }
      case Schedule::dynamic:
      case Schedule::guided: {
        const std::size_t base_chunk =
            chunk != 0 ? chunk : std::max<std::size_t>(1, n / (width * 8));
        workers.push_back(sim::spawn(
            engine,
            [](SubContext& c, const ForBody& f, std::shared_ptr<std::size_t> nx,
               std::size_t total, std::size_t chunk_sz, bool guided,
               std::size_t nworkers, double oh) -> sim::Task<void> {
              auto& eng = c.master().runtime().engine();
              for (;;) {
                const std::size_t lo = *nx;
                if (lo >= total) break;
                std::size_t len = chunk_sz;
                if (guided) {
                  len = std::max<std::size_t>(chunk_sz,
                                              (total - lo) / (2 * nworkers));
                }
                const std::size_t hi = std::min(total, lo + len);
                *nx = hi;
                c.master().runtime().counters().add(kTask, c.master().rank());
                co_await sim::delay(eng, sim::from_seconds(oh));
                co_await f(c, lo, hi);
              }
            }(ctx, fn, next, n, base_chunk, schedule == Schedule::guided,
              width, task_cost)));
        break;
      }
    }
  }
  for (const auto& w : workers) co_await w;
}

gas::Thread& SubContext::master() noexcept { return pool_->master(); }

sim::DelayAwaiter SubContext::compute(double single_thread_seconds) {
  auto& rt = master().runtime();
  return rt.memory().compute(
      rt.slots(), loc_, single_thread_seconds * pool_->params().compute_inflation);
}

sim::DelayAwaiter SubContext::compute_flops(double flops, double efficiency) {
  auto& rt = master().runtime();
  return rt.memory().compute_flops(
      rt.slots(), loc_, flops * pool_->params().compute_inflation, efficiency);
}

async::future<> SubContext::stream_master_data(double bytes) {
  return master().runtime().memory().stream(loc_, master().loc(), bytes);
}

async::future<> SubContext::stream_local(double bytes) {
  return master().runtime().memory().stream(loc_, loc_, bytes);
}

sim::Task<void> SubContext::gas_gate() {
  switch (pool_->safety()) {
    case ThreadSafety::single:
      throw ThreadSafetyViolation(ThreadSafety::single);
    case ThreadSafety::funneled:
      if (!is_master()) throw ThreadSafetyViolation(ThreadSafety::funneled);
      break;
    case ThreadSafety::serialized:
      co_await pool_->serialize_gate_->lock();
      break;
    case ThreadSafety::multiple:
      break;
  }
  co_return;
}

void SubContext::gas_release() {
  if (pool_->safety() == ThreadSafety::serialized) {
    pool_->serialize_gate_->unlock();
  }
}

}  // namespace hupc::core
