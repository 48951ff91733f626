#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <numeric>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/hooks.hpp"
#include "sim/engine.hpp"
#include "sim/progress.hpp"

namespace {

using hupc::sim::call_at;
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
  call_at(e, 30, [&] { order.push_back(3); });
  call_at(e, 10, [&] { order.push_back(1); });
  call_at(e, 20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    call_at(e, 100, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, PastTimesClampToNow) {
  Engine e;
  Time seen = -1;
  call_at(e, 50, [&] {
    call_at(e, 10, [&] { seen = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(seen, 50);
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine e;
  int hits = 0;
  call_at(e, 1, [&] {
    ++hits;
    call_at(e, e.now() + 1, [&] {
      ++hits;
      call_at(e, e.now() + 1, [&] { ++hits; });
    });
  });
  e.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(e.now(), 3);
}

TEST(Engine, RunUntilLeavesLaterEventsQueued) {
  Engine e;
  int hits = 0;
  call_at(e, 1 * kMicrosecond, [&] { ++hits; });
  call_at(e, 1 * kSecond, [&] { ++hits; });
  e.run_until(kMicrosecond);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(hits, 2);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 10; ++i) call_at(e, i, [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 10u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  call_at(e, 5, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, LongSameInstantBurstKeepsFifoOrder) {
  // One wheel slot holds more events than the wheel has slots, and it
  // drains and reuses their records while later ones are still appended.
  Engine e;
  constexpr int kRoots = 6000;
  std::vector<int> order;
  call_at(e, 7, [&] {
    for (int i = 0; i < kRoots; ++i) {
      call_at(e, e.now(), [&, i] {
        order.push_back(i);
        call_at(e, e.now(), [&, i] { order.push_back(kRoots + i); });
      });
    }
  });
  call_at(e, 8, [&] { order.push_back(-1); });
  e.run();
  ASSERT_EQ(order.size(), 2u * kRoots + 1);
  for (int i = 0; i < 2 * kRoots; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(order.back(), -1);
  EXPECT_EQ(e.now(), 8);
}

TEST(Engine, FarAndNearEventsAtOneTimeRunInSeqOrder) {
  // Two events scheduled a full wheel span ahead go to the heap; two more
  // for the same time, scheduled once it is within the span, go to the
  // wheel. They run in scheduling order, heap and wheel interleaved.
  Engine e;
  const Time at = Engine::kWheel + 10;
  std::vector<int> order;
  call_at(e, at, [&] { order.push_back(0); });
  call_at(e, at, [&] { order.push_back(1); });
  call_at(e, 20, [&] {
    call_at(e, at, [&] { order.push_back(2); });
    call_at(e, at, [&] { order.push_back(3); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(e.now(), at);
}

TEST(Engine, RunUntilStopsBetweenWheelAndHeapEvents) {
  Engine e;
  std::vector<int> order;
  const Time far = Engine::kWheel + 50;
  call_at(e, 100, [&] { order.push_back(0); });  // wheel
  call_at(e, far, [&] { order.push_back(1); });  // heap
  // Scheduled at 100, for a wheel slot after the heap event.
  call_at(e, 100, [&] { call_at(e, far + 5, [&] { order.push_back(2); }); });

  // The deadline falls between the wheel event and the heap event.
  EXPECT_EQ(e.run_until(far - 1), 100);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(e.pending(), 2u);
  // Now between the heap event and the later wheel event.
  EXPECT_EQ(e.run_until(far + 4), far);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run_until(far + 5), far + 5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(e.empty());
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

/// The four ways RealSide schedules an event. The reference model treats
/// them all alike: an event is an (at, seq) entry whatever runs it.
enum class Kind {
  handle,    // a coroutine handle
  function,  // a callable in a sim::CallNode (sim::call_at)
  node,      // an intrusive EventNode of its own
  link,      // a firing of the one FluidLink-style node (see RealSide)
};

/// What one dispatched event schedules: a seeded random mix of the four
/// kinds with zero, negative and future delays, given as schedule_in
/// delays or schedule_at times.
struct Child {
  Kind kind;
  bool absolute;
  Time when;  // delay for schedule_in, time for schedule_at
};

/// How a Program fans out: each event schedules 0 .. max_children - 1
/// children, `budget` of them in all. A child is far-future (up to `far`
/// ahead) with weight `far_weight`, and at the wheel's edge with weight
/// `edge_weight`, against 4 for the other delay kinds.
struct Shape {
  int max_children;
  int budget;
  Time far;
  int far_weight;
  int edge_weight = 0;
};
/// Mixed same-instant and near-future events, all within the wheel.
constexpr Shape kMixed{4, 2500, 1000, 1};
/// Wide fan-out, mostly into the far future: over 10 k events pending at
/// the peak, so the heap is many 4-child groups deep and its size passes
/// through every remainder of a group as it fills and drains.
constexpr Shape kDeep{128, 16000, 1'000'000, 12};
/// Mostly events at the wheel's edge: delays of kWheel - 1, kWheel and
/// kWheel + 1, and times on a coarse grid up to two spans ahead, so heap
/// events share their time with wheel events scheduled later.
constexpr Shape kEdge{4, 3000, 1000, 1, 6};
/// The grid kEdge's shared times lie on.
constexpr Time kEdgeGrid = Engine::kWheel / 8;

class Program {
 public:
  Program(std::uint64_t seed, Shape shape) : rng_(seed), shape_(shape) {}

  std::vector<Child> children(Time now) {
    std::vector<Child> out;
    if (spawned_ >= shape_.budget) return out;
    const int n = static_cast<int>(
        rng_() % static_cast<std::uint64_t>(shape_.max_children));
    for (int i = 0; i < n && spawned_ < shape_.budget; ++i, ++spawned_) {
      Child c{};
      c.kind = static_cast<Kind>(rng_() % 4);
      c.absolute = rng_() % 3 == 0;
      Time delta = 0;
      switch (rng_() % static_cast<std::uint64_t>(4 + shape_.far_weight)) {
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
          if (rng_() % static_cast<std::uint64_t>(shape_.far_weight +
                                                  shape_.edge_weight) <
              static_cast<std::uint64_t>(shape_.edge_weight)) {
            delta = edge_delay(now);
          } else {
            delta = static_cast<Time>(
                1 + rng_() % static_cast<std::uint64_t>(shape_.far));
          }
          break;
      }
      c.when = c.absolute ? now + delta : delta;
      out.push_back(c);
    }
    return out;
  }

 private:
  Time edge_delay(Time now) {
    if (rng_() % 2 == 0) {
      return Engine::kWheel - 1 + static_cast<Time>(rng_() % 3);
    }
    const Time steps = 1 + static_cast<Time>(
                               rng_() % static_cast<std::uint64_t>(
                                            2 * Engine::kWheel / kEdgeGrid));
    return (now / kEdgeGrid + steps) * kEdgeGrid - now;
  }

  std::mt19937_64 rng_;
  Shape shape_;
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
///
/// A `node` child is an EventNode of its own that must fire with the seq
/// schedule_node returned for it. Every `link` child queues the same node
/// again, as FluidLink queues itself at each arrival and departure: the
/// latest seq is the live one, and a firing with any other seq is
/// superseded. A superseded firing still dispatches (the model counts
/// it, and it runs the event body like any other), but the link ignores
/// it: only live firings land in `live_links`.
class RealSide {
 public:
  RealSide(std::uint64_t seed, Shape shape, JitterHook* hook)
      : program_(seed, shape) {
    engine.set_fault(hook);
  }
  RealSide(const RealSide&) = delete;
  RealSide& operator=(const RealSide&) = delete;
  ~RealSide() {
    for (auto h : frames_) h.destroy();
  }

  void schedule(const Child& c) {
    const int id = next_id_++;
    scheduled_during_.push_back(log.size());
    const Time at =
        c.absolute ? c.when : engine.now() + std::max<Time>(c.when, 0);
    switch (c.kind) {
      case Kind::handle: {
        auto h = fire(id).handle;
        frames_.push_back(h);
        if (c.absolute) {
          engine.schedule_at(c.when, h);
        } else {
          engine.schedule_in(c.when, h);
        }
        break;
      }
      case Kind::function:
        call_at(engine, at, [this, id] { run_body(id); });
        break;
      case Kind::node: {
        Tick& tick = ticks_.emplace_back(this, id);
        tick.seq = engine.schedule_node(at, &tick);
        break;
      }
      case Kind::link: {
        link_.live_seq = engine.schedule_node(at, &link_);
        link_.id_of_seq.emplace(link_.live_seq, id);
        link_ids.push_back(id);
        break;
      }
    }
  }

  /// The link ids the FluidLink rule must find live: a link event is
  /// live at its dispatch iff the next link event was not scheduled yet,
  /// that is, it was scheduled during or after that dispatch.
  [[nodiscard]] std::vector<int> expected_live_links() const {
    std::vector<std::size_t> dispatched_at(scheduled_during_.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      dispatched_at[static_cast<std::size_t>(log[i].id)] = i;
    }
    std::vector<int> live;
    for (std::size_t k = 0; k < link_ids.size(); ++k) {
      const auto id = static_cast<std::size_t>(link_ids[k]);
      if (k + 1 == link_ids.size() ||
          scheduled_during_[static_cast<std::size_t>(link_ids[k + 1])] >
              dispatched_at[id]) {
        live.push_back(link_ids[k]);
      }
    }
    std::sort(live.begin(), live.end(), [&](int a, int b) {
      return dispatched_at[static_cast<std::size_t>(a)] <
             dispatched_at[static_cast<std::size_t>(b)];
    });
    return live;
  }

  Engine engine;
  std::vector<Dispatch> log;
  std::vector<int> link_ids;       // every link event, in scheduling order
  std::vector<int> live_links;     // link firings not superseded, in order
  std::size_t seq_mismatches = 0;  // node firings with a wrong seq

 private:
  struct Tick : hupc::sim::EventNode {
    Tick(RealSide* s, int i) : EventNode{&on_fire}, side(s), id(i) {}
    static void on_fire(EventNode* self, std::uint64_t seq) {
      auto* tick = static_cast<Tick*>(self);
      tick->side->seq_mismatches += seq != tick->seq ? 1 : 0;
      tick->side->run_body(tick->id);
    }
    RealSide* side;
    int id;
    std::uint64_t seq = 0;
  };
  struct Link : hupc::sim::EventNode {
    explicit Link(RealSide* s) : EventNode{&on_fire}, side(s) {}
    static void on_fire(EventNode* self, std::uint64_t seq) {
      auto* link = static_cast<Link*>(self);
      const auto it = link->id_of_seq.find(seq);
      if (it == link->id_of_seq.end()) {
        ++link->side->seq_mismatches;
        return;
      }
      if (seq == link->live_seq) link->side->live_links.push_back(it->second);
      link->side->run_body(it->second);
    }
    RealSide* side;
    std::uint64_t live_seq = ~std::uint64_t{0};
    std::unordered_map<std::uint64_t, int> id_of_seq;
  };

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
  std::deque<Tick> ticks_;
  Link link_{this};
  std::vector<std::size_t> scheduled_during_;  // by id: log.size() then
};

/// The reference: one (at, seq)-ordered queue, the engine's contract.
class ModelSide {
 public:
  ModelSide(std::uint64_t seed, Shape shape, JitterHook* hook)
      : program_(seed, shape), hook_(hook) {}
  void schedule(const Child& c) {
    Time at = c.absolute ? c.when : now + std::max<Time>(c.when, 0);
    if (at < now) at = now;
    if (hook_ != nullptr) {
      at = hook_->perturb_schedule(now, at);
      if (at < now) at = now;
    }
    const bool far = at - now >= Engine::kWheel;
    if (at - now >= Engine::kWheel - 1 && at - now <= Engine::kWheel + 1) {
      edge_delays |= 1u << (at - now - (Engine::kWheel - 1));
    }
    if (!far && std::any_of(queue_.begin(), queue_.end(),
                            [&](const Pending& p) {
                              return p.far && p.at == at;
                            })) {
      ++far_near_ties;
    }
    queue_.push_back({at, seq_++, next_id_++, far});
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
  /// Bit d set iff some event's final delay was kWheel - 1 + d.
  unsigned edge_delays = 0;
  /// Events scheduled within the wheel's span for a time that an event
  /// scheduled at least kWheel ahead (a heap event) still holds.
  std::size_t far_near_ties = 0;

 private:
  struct Pending {
    Time at;
    std::uint64_t seq;
    int id;
    bool far;  // scheduled at least kWheel ahead
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

/// How deep the engine's queue got in one run: the peak pending() and a
/// bit per remainder of pending() % 4 seen while more than 10 k were
/// pending.
struct Depth {
  std::size_t peak = 0;
  unsigned deep_remainders = 0;
};

/// What the reference model saw of the wheel's edge in one run.
struct Edge {
  unsigned delays = 0;
  std::size_t far_near_ties = 0;
};

void check_order_equivalence(std::uint64_t seed, bool with_hook,
                             Shape shape = kMixed, Depth* depth = nullptr,
                             Edge* edge = nullptr) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " hook " << with_hook);
  JitterHook real_hook(seed * 7919);
  JitterHook model_hook(seed * 7919);
  RealSide real(seed, shape, with_hook ? &real_hook : nullptr);
  ModelSide model(seed, shape, with_hook ? &model_hook : nullptr);

  // Roots scheduled before the engine runs, at and after time 0.
  std::mt19937_64 drive(seed ^ 0x5bd1e995);
  for (int i = 0; i < 16; ++i) {
    const Child c{static_cast<Kind>(i % 4), i % 3 == 0,
                  static_cast<Time>(drive() % 4)};
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
    if (depth != nullptr) {
      const std::size_t pending = real.engine.pending();
      depth->peak = std::max(depth->peak, pending);
      if (pending > 10'000) depth->deep_remainders |= 1u << (pending % 4);
    }
    ++steps;
  }
  EXPECT_FALSE(model.step());
  if (edge != nullptr) *edge = {model.edge_delays, model.far_near_ties};
  EXPECT_EQ(real.log, model.log);
  EXPECT_EQ(real_hook.calls, model_hook.calls);
  EXPECT_GT(real.log.size(), 1000u);
  // Every node fired with its own seq, and the FluidLink rule kept
  // exactly the link firings nothing had superseded.
  EXPECT_EQ(real.seq_mismatches, 0u);
  EXPECT_FALSE(real.link_ids.empty());
  EXPECT_EQ(real.live_links, real.expected_live_links());
  EXPECT_LT(real.live_links.size(), real.link_ids.size());
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

TEST(EngineProperty, DeepHeapDispatchOrderMatchesReferenceModel) {
  // The model scans its whole queue per step, so two runs keep this quick.
  for (const auto& [seed, with_hook] :
       {std::pair<std::uint64_t, bool>{1, false}, {2, true}}) {
    Depth depth;
    check_order_equivalence(seed, with_hook, kDeep, &depth);
    EXPECT_GT(depth.peak, 10'000u) << "seed " << seed;
    EXPECT_EQ(depth.deep_remainders, 0xfu) << "seed " << seed;
  }
}

TEST(EngineProperty, WheelEdgeDispatchOrderMatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool with_hook : {false, true}) {
      Edge edge;
      check_order_equivalence(seed, with_hook, kEdge, nullptr, &edge);
      // Delays of kWheel - 1, kWheel and kWheel + 1 all occurred, and
      // wheel events joined heap events at one time.
      EXPECT_EQ(edge.delays, 0x7u) << "seed " << seed << " hook " << with_hook;
      EXPECT_GT(edge.far_near_ties, 10u)
          << "seed " << seed << " hook " << with_hook;
    }
  }
}

Once record_now(Engine& e, Time& at) {
  at = e.now();
  co_return;
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  Time at = -1;
  const auto h = record_now(e, at).handle;
  call_at(e, 10, [&] { e.schedule_in(-5, h); });
  e.run();
  EXPECT_EQ(at, 10);
  h.destroy();
}

// ---- Personas ----

Once take_turn(hupc::sim::ProgressQueue& queue, std::vector<int>& order,
               int entry) {
  co_await queue.turn();
  order.push_back(entry);
}

TEST(ProgressQueue, EntryOrderHoldsUnderScheduleJitter) {
  // Coroutines enter one persona at one instant while the hook delays a
  // share of the drain ticks. Every tick resumes the queue's front, so
  // they still resume in entry order, one engine event per entry.
  constexpr int kEntries = 64;
  std::vector<int> entry_order(kEntries);
  std::iota(entry_order.begin(), entry_order.end(), 0);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Engine e;
    JitterHook hook(seed);
    e.set_fault(&hook);
    hupc::sim::ProgressQueue queue(e);
    std::vector<int> order;
    std::vector<std::coroutine_handle<>> frames;
    for (int i = 0; i < kEntries; ++i) {
      frames.push_back(take_turn(queue, order, i).handle);
      frames.back().resume();  // runs up to its turn() at time 0
    }
    EXPECT_TRUE(order.empty());
    e.run();
    EXPECT_EQ(order, entry_order);
    EXPECT_EQ(e.events_executed(), static_cast<std::uint64_t>(kEntries));
    EXPECT_EQ(hook.calls.size(), static_cast<std::size_t>(kEntries));
    EXPECT_GT(e.now(), 0) << "the hook delayed no tick";
    for (const auto h : frames) h.destroy();
  }
}

}  // namespace
