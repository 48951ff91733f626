// Hierarchical sub-threads under a master UPC thread (thesis Chapter 4).
//
// A SubPool attaches to one gas::Thread (the master) and owns `width`
// execution contexts placed on the master's socket (sub-threads inherit the
// master's affinity mask, §4.3.2). Context 0 reuses the master's hardware
// slot — a parallel region uses the master's core plus width-1 extra slots,
// like an OpenMP team of `width` threads.
//
// Three runtime models differ only in overhead constants (fork/join region
// cost, per-task cost, compute inflation, one-time startup lag), calibrated
// to the thesis observations: OpenMP fastest, the in-house thread pool
// close behind, Cilk++ ~10% slower kernels plus a constant startup lag
// (§4.3.3.3).
//
// Sub-threads may access the global address space directly — the PGAS
// convenience the thesis highlights over MPI+threads — subject to the
// configured ThreadSafety level.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/safety.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "topo/machine.hpp"

namespace hupc::core {

enum class SubModel { openmp, thread_pool, cilk };

struct SubModelParams {
  double region_overhead_s;  // fork+join cost of one parallel region
  double task_overhead_s;    // per spawned task/chunk
  double compute_inflation;  // multiplier on compute time (runtime overhead)
  double startup_lag_s;      // one-time cost at first region
};

[[nodiscard]] SubModelParams params_for(SubModel model);

class SubPool;

/// Execution context of one sub-thread. GAS operations route through the
/// master's runtime identity but charge compute at the sub-thread's own
/// hardware location, and are gated by the pool's ThreadSafety level.
class SubContext {
 public:
  SubContext(SubPool& pool, int id, topo::HwLoc loc)
      : pool_(&pool), id_(id), loc_(loc) {}

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] bool is_master() const noexcept { return id_ == 0; }
  [[nodiscard]] topo::HwLoc loc() const noexcept { return loc_; }
  [[nodiscard]] SubPool& pool() noexcept { return *pool_; }
  [[nodiscard]] gas::Thread& master() noexcept;

  // --- local work at this sub-thread's location -------------------------
  [[nodiscard]] sim::DelayAwaiter compute(double single_thread_seconds);
  [[nodiscard]] sim::DelayAwaiter compute_flops(double flops,
                                                double efficiency);
  /// Memory traffic against the master's home socket (shared arrays are
  /// first-touched by the master — §4.3.2's placement lesson).
  [[nodiscard]] async::future<> stream_master_data(double bytes);
  /// Memory traffic homed wherever this sub-thread sits.
  [[nodiscard]] async::future<> stream_local(double bytes);

  // --- GAS access from a sub-thread (safety-gated) ----------------------
  // The blocking put/get shapes of gas::Thread::copy, charged at this
  // sub-thread's location.
  template <class T>
  [[nodiscard]] sim::Task<void> copy(gas::GlobalPtr<T> dst, const T* src,
                                     std::size_t count) {
    co_await gas_gate();
    co_await master().copy_raw_from(loc_, dst.owner, dst.raw, src,
                                    count * sizeof(T));
    gas_release();
  }
  template <class T, class U>
    requires gas::SourceElement<U, T>
  [[nodiscard]] sim::Task<void> copy(T* dst, gas::GlobalPtr<U> src,
                                     std::size_t count) {
    co_await gas_gate();
    co_await master().copy_raw_from(loc_, src.owner, dst, src.raw,
                                    count * sizeof(T));
    gas_release();
  }

 private:
  friend class SubPool;
  [[nodiscard]] sim::Task<void> gas_gate();
  void gas_release();

  SubPool* pool_;
  int id_;
  topo::HwLoc loc_;
};

/// Loop-scheduling policies for parallel_for.
enum class Schedule { static_chunks, dynamic };

class SubPool {
 public:
  /// Acquire `width` contexts (context 0 = the master's own slot; width-1
  /// new slots allocated on the master's socket).
  SubPool(gas::Thread& master, int width, SubModel model = SubModel::openmp,
          ThreadSafety safety = ThreadSafety::funneled);
  ~SubPool();
  SubPool(const SubPool&) = delete;
  SubPool& operator=(const SubPool&) = delete;

  [[nodiscard]] int width() const noexcept {
    return static_cast<int>(contexts_.size());
  }
  [[nodiscard]] gas::Thread& master() noexcept { return *master_; }
  [[nodiscard]] SubModel model() const noexcept { return model_; }
  [[nodiscard]] ThreadSafety safety() const noexcept { return safety_; }
  [[nodiscard]] const SubModelParams& params() const noexcept { return params_; }
  [[nodiscard]] SubContext& context(int i) {
    return *contexts_[static_cast<std::size_t>(i)];
  }

  using ForBody =
      std::function<sim::Task<void>(SubContext&, std::size_t, std::size_t)>;

  /// Fork-join parallel loop over [0, n): every context runs chunks per the
  /// schedule; returns when all iterations complete (implicit join).
  [[nodiscard]] sim::Task<void> parallel_for(std::size_t n, Schedule schedule,
                                             ForBody body,
                                             std::size_t chunk = 0);

 private:
  friend class SubContext;
  [[nodiscard]] sim::Task<void> region_prologue();

  gas::Thread* master_;
  SubModel model_;
  SubModelParams params_;
  ThreadSafety safety_;
  std::vector<std::unique_ptr<SubContext>> contexts_;
  std::vector<topo::HwLoc> allocated_;  // slots to release (excludes ctx 0)
  std::unique_ptr<sim::Mutex> serialize_gate_;
  bool started_ = false;
  // Keeps region bodies alive while their coroutines run.
  std::vector<ForBody> live_bodies_;
};

}  // namespace hupc::core
