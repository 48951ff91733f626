#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <random>
#include <utility>
#include <vector>

#include "fault/hooks.hpp"
#include "sim/engine.hpp"

namespace {

using hupc::sim::Engine;
using hupc::sim::kMicrosecond;
using hupc::sim::kSecond;
using hupc::sim::Time;

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, PastTimesClampToNow) {
  Engine e;
  Time seen = -1;
  e.schedule_at(50, [&] {
    e.schedule_at(10, [&] { seen = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(seen, 50);
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine e;
  int hits = 0;
  e.schedule_at(1, [&] {
    ++hits;
    e.schedule_in(1, [&] {
      ++hits;
      e.schedule_in(1, [&] { ++hits; });
    });
  });
  e.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(e.now(), 3);
}

TEST(Engine, RunUntilLeavesLaterEventsQueued) {
  Engine e;
  int hits = 0;
  e.schedule_at(1 * kMicrosecond, [&] { ++hits; });
  e.schedule_at(1 * kSecond, [&] { ++hits; });
  e.run_until(kMicrosecond);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(hits, 2);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 10; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 10u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(5, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  Time at = -1;
  e.schedule_at(10, [&] { e.schedule_in(-5, [&] { at = e.now(); }); });
  e.run();
  EXPECT_EQ(at, 10);
}

TEST(Engine, LongSameInstantBurstKeepsFifoOrder) {
  // Enough same-instant events that the lane drops its consumed prefix
  // while later ones are still being appended.
  Engine e;
  constexpr int kRoots = 6000;
  std::vector<int> order;
  e.schedule_at(7, [&] {
    for (int i = 0; i < kRoots; ++i) {
      e.schedule_in(0, [&, i] {
        order.push_back(i);
        e.schedule_in(0, [&, i] { order.push_back(kRoots + i); });
      });
    }
  });
  e.schedule_at(8, [&] { order.push_back(-1); });
  e.run();
  ASSERT_EQ(order.size(), 2u * kRoots + 1);
  for (int i = 0; i < 2 * kRoots; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(order.back(), -1);
  EXPECT_EQ(e.now(), 8);
}

// ---- Order equivalence against a reference (at, seq) model ----

/// Delays, and sometimes pulls into the past, a deterministic share of the
/// events; logs every call so both sides can be held to the same calls.
class JitterHook final : public hupc::fault::ScheduleHook {
 public:
  explicit JitterHook(std::uint64_t seed) : rng_(seed) {}
  std::int64_t perturb_schedule(std::int64_t now,
                                std::int64_t at) noexcept override {
    calls.emplace_back(now, at);
    switch (rng_() % 4) {
      case 0:
        return at + static_cast<std::int64_t>(rng_() % 16);
      case 1:
        return now - 3;  // the engine clamps it back to now
      default:
        return at;
    }
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;

 private:
  std::mt19937_64 rng_;
};

/// What one dispatched event schedules: a seeded random mix of coroutine
/// handle and callback events with zero, negative and future delays, given
/// as schedule_in delays or schedule_at times.
struct Child {
  bool handle;
  bool absolute;
  Time when;  // delay for schedule_in, time for schedule_at
};

class Program {
 public:
  explicit Program(std::uint64_t seed) : rng_(seed) {}

  std::vector<Child> children(Time now) {
    std::vector<Child> out;
    if (spawned_ >= kBudget) return out;
    const int n = static_cast<int>(rng_() % 4);
    for (int i = 0; i < n && spawned_ < kBudget; ++i, ++spawned_) {
      Child c{};
      c.handle = rng_() % 2 == 0;
      c.absolute = rng_() % 3 == 0;
      Time delta = 0;
      switch (rng_() % 5) {
        case 0:
        case 1:
          delta = 0;  // same instant
          break;
        case 2:
          delta = -static_cast<Time>(1 + rng_() % 50);  // clamps to now
          break;
        case 3:
          delta = static_cast<Time>(1 + rng_() % 3);
          break;
        default:
          delta = static_cast<Time>(1 + rng_() % 1000);
          break;
      }
      c.when = c.absolute ? now + delta : delta;
      out.push_back(c);
    }
    return out;
  }

 private:
  static constexpr int kBudget = 2500;
  std::mt19937_64 rng_;
  int spawned_ = 0;
};

struct Dispatch {
  int id;
  Time at;
  std::size_t pending;  // pending() seen from inside the event
  bool operator==(const Dispatch&) const = default;
};

/// A coroutine that runs one event body when first resumed.
struct Once {
  struct promise_type {
    Once get_return_object() noexcept {
      return Once{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

/// The engine under test, driven by a Program.
class RealSide {
 public:
  RealSide(std::uint64_t seed, JitterHook* hook) : program_(seed) {
    engine.set_fault(hook);
  }
  RealSide(const RealSide&) = delete;
  RealSide& operator=(const RealSide&) = delete;
  ~RealSide() {
    for (auto h : frames_) h.destroy();
  }

  void schedule(const Child& c) {
    const int id = next_id_++;
    if (c.handle) {
      auto h = fire(id).handle;
      frames_.push_back(h);
      if (c.absolute) {
        engine.schedule_at(c.when, h);
      } else {
        engine.schedule_in(c.when, h);
      }
    } else if (c.absolute) {
      engine.schedule_at(c.when, [this, id] { run_body(id); });
    } else {
      engine.schedule_in(c.when, [this, id] { run_body(id); });
    }
  }

  Engine engine;
  std::vector<Dispatch> log;

 private:
  Once fire(int id) {
    run_body(id);
    co_return;
  }
  void run_body(int id) {
    log.push_back({id, engine.now(), engine.pending()});
    for (const Child& c : program_.children(engine.now())) schedule(c);
  }

  Program program_;
  int next_id_ = 0;
  std::vector<std::coroutine_handle<>> frames_;
};

/// The reference: one (at, seq)-ordered queue, the engine's contract.
class ModelSide {
 public:
  ModelSide(std::uint64_t seed, JitterHook* hook)
      : program_(seed), hook_(hook) {}

  void schedule(const Child& c) {
    Time at = c.absolute ? c.when : now + std::max<Time>(c.when, 0);
    if (at < now) at = now;
    if (hook_ != nullptr) {
      at = hook_->perturb_schedule(now, at);
      if (at < now) at = now;
    }
    queue_.push_back({at, seq_++, next_id_++});
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] bool has_due(Time deadline) const {
    return !queue_.empty() && front()->at <= deadline;
  }

  bool step() {
    if (queue_.empty()) return false;
    const auto it = front();
    const Pending ev = *it;
    queue_.erase(it);
    now = ev.at;
    log.push_back({ev.id, now, queue_.size()});
    for (const Child& c : program_.children(now)) schedule(c);
    return true;
  }

  Time now = 0;
  std::vector<Dispatch> log;

 private:
  struct Pending {
    Time at;
    std::uint64_t seq;
    int id;
  };
  [[nodiscard]] std::vector<Pending>::const_iterator front() const {
    return std::min_element(queue_.begin(), queue_.end(),
                            [](const Pending& a, const Pending& b) {
                              return a.at != b.at ? a.at < b.at
                                                  : a.seq < b.seq;
                            });
  }

  Program program_;
  JitterHook* hook_;
  std::vector<Pending> queue_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
};

void check_order_equivalence(std::uint64_t seed, bool with_hook) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " hook " << with_hook);
  JitterHook real_hook(seed * 7919);
  JitterHook model_hook(seed * 7919);
  RealSide real(seed, with_hook ? &real_hook : nullptr);
  ModelSide model(seed, with_hook ? &model_hook : nullptr);

  // Roots scheduled before the engine runs, at and after time 0.
  std::mt19937_64 drive(seed ^ 0x5bd1e995);
  for (int i = 0; i < 16; ++i) {
    const Child c{i % 2 == 0, i % 3 == 0, static_cast<Time>(drive() % 4)};
    real.schedule(c);
    model.schedule(c);
  }

  std::size_t steps = 0;
  while (!real.engine.empty()) {
    if (drive() % 8 == 0) {
      // A run_until deadline, sometimes already in the past.
      const Time deadline =
          real.engine.now() + static_cast<Time>(drive() % 40) - 8;
      real.engine.run_until(deadline);
      while (model.has_due(deadline)) model.step();
    } else {
      ASSERT_TRUE(real.engine.step());
      ASSERT_TRUE(model.step());
    }
    ASSERT_EQ(real.log.size(), model.log.size()) << "after step " << steps;
    if (!real.log.empty()) {
      ASSERT_EQ(real.log.back(), model.log.back()) << "after step " << steps;
    }
    ASSERT_EQ(real.engine.now(), model.now) << "after step " << steps;
    ASSERT_EQ(real.engine.pending(), model.pending()) << "after step " << steps;
    ++steps;
  }
  EXPECT_FALSE(model.step());
  EXPECT_EQ(real.log, model.log);
  EXPECT_EQ(real_hook.calls, model_hook.calls);
  EXPECT_GT(real.log.size(), 1000u);
}

TEST(EngineProperty, DispatchOrderMatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    check_order_equivalence(seed, false);
  }
}

TEST(EngineProperty, DispatchOrderMatchesReferenceModelUnderScheduleHook) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    check_order_equivalence(seed, true);
  }
}

}  // namespace
