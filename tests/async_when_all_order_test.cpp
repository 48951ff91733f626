// when_all schedules at most one engine event per gather (DESIGN.md §13):
// an input's arrival only counts down, and the arrival that reaches zero
// schedules the settle event where the per-input gather scheduled its last
// arrival event. This file keeps that per-input gather (one `finally`
// callback, and so one same-instant event, per input) as the oracle, and
// checks on seeded mixes that both resume the same processes at the same
// times in the same order: ready, pending and failed inputs, inputs listed
// twice, engine-less inputs, extra waiters and `then`s on the same inputs,
// gathers over gathers and competing same-instant processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "async/future.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace hupc::async {
namespace {

// --- the oracle: one arrival event per input -------------------------------

template <class T, class Result>
struct LegacyGather {
  promise<Result> result;
  std::vector<future<T>> inputs;
  std::size_t remaining = 0;

  void arrive() {
    if (--remaining > 0) return;
    for (auto& f : inputs) {
      if (f.failed()) {
        try {
          (void)f.get();
        } catch (...) {
          result.set_exception(std::current_exception());
          return;
        }
      }
    }
    if constexpr (std::is_void_v<T>) {
      result.set_value();
    } else {
      Result values;
      for (auto& f : inputs) values.push_back(f.get());
      result.set_value(std::move(values));
    }
  }
};

template <class T, class Result>
future<Result> legacy_when_all(std::vector<future<T>> futures) {
  auto g = std::make_shared<LegacyGather<T, Result>>();
  g->inputs = std::move(futures);
  g->remaining = g->inputs.size();
  future<Result> out = g->result.get_future();
  if (g->inputs.empty()) {
    if constexpr (std::is_void_v<Result>) {
      g->result.set_value();
    } else {
      g->result.set_value({});
    }
    return out;
  }
  for (auto& f : g->inputs) {
    f.finally([g] { g->arrive(); });
  }
  return out;
}

// --- seeded scenario plans -------------------------------------------------

struct InputPlan {
  bool engine_backed;
  bool fails;
  bool resolve_before_run;  // resolved by host code before the engine runs
  sim::Time resolve_at;
};

struct GatherPlan {
  bool is_void;
  sim::Time start_at;
  std::vector<int> inputs;  // indices into the int or void input table
  int extra_waiters;
  bool then_on_result;
};

struct Plan {
  std::vector<InputPlan> int_inputs;
  std::vector<InputPlan> void_inputs;
  std::vector<int> resolve_order;  // int inputs then void inputs (offset)
  std::vector<GatherPlan> gathers;
  std::vector<std::pair<int, sim::Time>> input_waiters;  // int input, start
  std::vector<int> input_thens;                          // int input
  std::vector<sim::Time> competitors;
  bool nested;  // a gather over the int gathers' results
};

constexpr sim::Time kHorizon = 6;

Plan make_plan(std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  Plan p;
  const auto input = [&] {
    InputPlan in{};
    in.engine_backed = rng.below(8) != 0;
    in.fails = rng.below(5) == 0;
    in.resolve_before_run = rng.below(4) == 0;
    in.resolve_at = static_cast<sim::Time>(rng.below(kHorizon));
    return in;
  };
  const int n_int = 1 + static_cast<int>(rng.below(8));
  const int n_void = 1 + static_cast<int>(rng.below(6));
  for (int i = 0; i < n_int; ++i) p.int_inputs.push_back(input());
  for (int i = 0; i < n_void; ++i) p.void_inputs.push_back(input());
  for (int i = 0; i < n_int + n_void; ++i) p.resolve_order.push_back(i);
  for (std::size_t i = p.resolve_order.size(); i > 1; --i) {
    std::swap(p.resolve_order[i - 1], p.resolve_order[rng.below(i)]);
  }
  const int n_gathers = 1 + static_cast<int>(rng.below(5));
  for (int g = 0; g < n_gathers; ++g) {
    GatherPlan gp{};
    gp.is_void = rng.below(2) == 0;
    gp.start_at = static_cast<sim::Time>(rng.below(kHorizon));
    const int pool = gp.is_void ? n_void : n_int;
    const int size = static_cast<int>(rng.below(6));  // 0 = empty gather
    for (int k = 0; k < size; ++k) {
      gp.inputs.push_back(static_cast<int>(rng.below(pool)));  // may repeat
    }
    gp.extra_waiters = static_cast<int>(rng.below(3));
    gp.then_on_result = rng.below(2) == 0;
    p.gathers.push_back(std::move(gp));
  }
  const int n_waiters = static_cast<int>(rng.below(4));
  for (int w = 0; w < n_waiters; ++w) {
    p.input_waiters.emplace_back(static_cast<int>(rng.below(n_int)),
                                 static_cast<sim::Time>(rng.below(kHorizon)));
  }
  const int n_thens = static_cast<int>(rng.below(4));
  for (int t = 0; t < n_thens; ++t) {
    p.input_thens.push_back(static_cast<int>(rng.below(n_int)));
  }
  const int n_comp = static_cast<int>(rng.below(5));
  for (int c = 0; c < n_comp; ++c) {
    p.competitors.push_back(static_cast<sim::Time>(rng.below(kHorizon)));
  }
  p.nested = rng.below(2) == 0;
  return p;
}

// --- execution -------------------------------------------------------------

/// Who resumed, at what virtual time, in what order.
struct Log {
  sim::Engine* engine;
  std::vector<std::string> lines;
  void add(const std::string& what) {
    lines.push_back(std::to_string(engine->now()) + " " + what);
  }
};

std::string outcome(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return std::string("threw ") + ex.what();
  }
}

template <class T>
std::string describe(const future<T>& f) {
  try {
    if constexpr (std::is_void_v<T>) {
      f.get();
      return "ok";
    } else if constexpr (std::is_same_v<T, int>) {
      return "ok " + std::to_string(f.get());
    } else {
      std::int64_t sum = 0;
      for (int v : f.get()) sum = sum * 31 + v;
      return "ok " + std::to_string(sum);
    }
  } catch (...) {
    return outcome(std::current_exception());
  }
}

template <class T>
sim::Task<void> wait_and_log(future<T> f, Log& log, std::string who) {
  try {
    co_await f.wait();
  } catch (...) {
  }
  log.add(who + " resumed: " + describe(f));
}

struct Run {
  bool legacy;
  Log& log;
  sim::Engine& engine;
  std::vector<future<std::vector<int>>> int_results;

  template <class T, class Result>
  future<Result> all(std::vector<future<T>> fs) const {
    return legacy ? legacy_when_all<T, Result>(std::move(fs))
                  : detail::gather<T, Result>(std::move(fs));
  }
};

template <class T, class Result>
sim::Task<void> gather_proc(Run& run, const GatherPlan& gp,
                            std::vector<future<T>>& table, std::string who) {
  co_await sim::delay(run.engine, gp.start_at);
  std::vector<future<T>> picked;
  for (int i : gp.inputs) picked.push_back(table[static_cast<std::size_t>(i)]);
  future<Result> result = run.template all<T, Result>(std::move(picked));
  if constexpr (!std::is_void_v<Result>) run.int_results.push_back(result);
  for (int w = 0; w < gp.extra_waiters; ++w) {
    sim::spawn(run.engine, wait_and_log(result, run.log,
                                        who + " waiter " + std::to_string(w)));
  }
  if (gp.then_on_result) {
    Log* log = &run.log;
    result.finally([log, who, result] {
      log->add(who + " finally: " + describe(result));
    });
  }
  co_await wait_and_log(result, run.log, who);
}

sim::Task<void> nested_proc(Run& run, std::size_t expected) {
  // Starts after every gather began (kHorizon), so all results exist.
  co_await sim::delay(run.engine, kHorizon);
  EXPECT_EQ(run.int_results.size(), expected);
  future<std::vector<std::vector<int>>> outer =
      run.legacy
          ? legacy_when_all<std::vector<int>, std::vector<std::vector<int>>>(
                run.int_results)
          : when_all(run.int_results);
  try {
    co_await outer.wait();
    run.log.add("nested resumed: " + std::to_string(outer.get().size()));
  } catch (...) {
    run.log.add("nested resumed: " + outcome(std::current_exception()));
  }
}

sim::Task<void> competitor(sim::Engine& e, Log& log, sim::Time at, int id) {
  co_await sim::delay(e, at);
  log.add("competitor " + std::to_string(id));
  co_await sim::delay(e, 0);
  log.add("competitor " + std::to_string(id) + " again");
}

struct Outcome {
  std::vector<std::string> log;
  std::uint64_t events = 0;
};

Outcome execute(const Plan& plan, bool legacy) {
  sim::Engine e;
  Log log{&e, {}};
  Run run{legacy, log, e, {}};

  std::vector<promise<int>> int_ps;
  std::vector<future<int>> int_fs;
  for (const auto& in : plan.int_inputs) {
    int_ps.push_back(in.engine_backed ? promise<int>(e) : promise<int>());
    int_fs.push_back(int_ps.back().get_future());
  }
  std::vector<promise<>> void_ps;
  std::vector<future<>> void_fs;
  for (const auto& in : plan.void_inputs) {
    void_ps.push_back(in.engine_backed ? promise<>(e) : promise<>());
    void_fs.push_back(void_ps.back().get_future());
  }

  const auto n_int = static_cast<int>(plan.int_inputs.size());
  // Input k is int input k, or void input k - n_int.
  const auto input_plan = [&](int k) -> const InputPlan& {
    return k < n_int ? plan.int_inputs[static_cast<std::size_t>(k)]
                     : plan.void_inputs[static_cast<std::size_t>(k - n_int)];
  };
  const auto resolve = [&](int k) {
    const bool is_int = k < n_int;
    const InputPlan& in = input_plan(k);
    const auto fail = std::make_exception_ptr(
        std::runtime_error("input " + std::to_string(k)));
    if (is_int) {
      auto& p = int_ps[static_cast<std::size_t>(k)];
      if (in.fails) {
        p.set_exception(fail);
      } else {
        p.set_value(k * 7 + 1);
      }
    } else {
      auto& p = void_ps[static_cast<std::size_t>(k - n_int)];
      if (in.fails) {
        p.set_exception(fail);
      } else {
        p.set_value();
      }
    }
  };

  // Host-side set-up, in plan order: early resolutions, thens on inputs,
  // the resolver events, then the processes.
  for (int k : plan.resolve_order) {
    if (input_plan(k).resolve_before_run) resolve(k);
  }
  for (std::size_t t = 0; t < plan.input_thens.size(); ++t) {
    const int i = plan.input_thens[t];
    (void)int_fs[static_cast<std::size_t>(i)].then([&log, t](int v) {
      log.add("then " + std::to_string(t) + " got " + std::to_string(v));
    });
  }
  for (int k : plan.resolve_order) {
    const InputPlan& in = input_plan(k);
    if (!in.resolve_before_run) {
      sim::call_at(e, in.resolve_at, [&resolve, &log, k] {
        log.add("resolve " + std::to_string(k));
        resolve(k);
      });
    }
  }
  std::size_t int_gathers = 0;
  for (std::size_t g = 0; g < plan.gathers.size(); ++g) {
    const GatherPlan& gp = plan.gathers[g];
    const std::string who = "gather " + std::to_string(g);
    if (gp.is_void) {
      sim::spawn(e, gather_proc<void, void>(run, gp, void_fs, who));
    } else {
      ++int_gathers;
      sim::spawn(e, gather_proc<int, std::vector<int>>(run, gp, int_fs, who));
    }
  }
  for (std::size_t w = 0; w < plan.input_waiters.size(); ++w) {
    const auto [i, at] = plan.input_waiters[w];
    sim::spawn(e, [](sim::Engine& eng, future<int> f, Log& lg, sim::Time start,
                     std::string who) -> sim::Task<void> {
      co_await sim::delay(eng, start);
      co_await wait_and_log(f, lg, who);
    }(e, int_fs[static_cast<std::size_t>(i)], log, at,
      "input waiter " + std::to_string(w)));
  }
  for (std::size_t c = 0; c < plan.competitors.size(); ++c) {
    sim::spawn(e, competitor(e, log, plan.competitors[c], static_cast<int>(c)));
  }
  if (plan.nested) sim::spawn(e, nested_proc(run, int_gathers));
  e.run();
  return {std::move(log.lines), e.events_executed()};
}

TEST(WhenAllOrder, OneEventGatherResumesLikeThePerInputGather) {
  std::uint64_t saved = 0;
  std::size_t longest = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const Plan plan = make_plan(seed);
    const std::int64_t live = debug_live_states();
    const Outcome oracle = execute(plan, /*legacy=*/true);
    ASSERT_EQ(debug_live_states(), live) << "oracle leaked, seed " << seed;
    const Outcome got = execute(plan, /*legacy=*/false);
    ASSERT_EQ(debug_live_states(), live) << "when_all leaked, seed " << seed;
    ASSERT_EQ(got.log, oracle.log) << "seed " << seed;
    ASSERT_LE(got.events, oracle.events) << "seed " << seed;
    saved += oracle.events - got.events;
    longest = std::max(longest, got.log.size());
  }
  // The mixes are not degenerate: gathers saved events and logs are long.
  EXPECT_GT(saved, 2000u);
  EXPECT_GT(longest, 20u);
}

TEST(WhenAllOrder, PendingGatherCostsOneEvent) {
  // n pending engine-backed inputs resolved at one instant: the per-input
  // gather runs n arrival events, the counting gather one settle event.
  for (bool legacy : {true, false}) {
    sim::Engine e;
    std::vector<promise<>> ps;
    std::vector<future<>> fs;
    for (int i = 0; i < 5; ++i) {
      ps.emplace_back(e);
      fs.push_back(ps.back().get_future());
    }
    const future<> all = legacy ? legacy_when_all<void, void>(std::move(fs))
                                : when_all(std::move(fs));
    for (auto& p : ps) p.set_value();
    e.run();
    EXPECT_TRUE(all.ready());
    EXPECT_EQ(e.events_executed(), legacy ? 5u : 1u);
  }
}

}  // namespace
}  // namespace hupc::async
