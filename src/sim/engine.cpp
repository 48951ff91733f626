#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hupc::sim {

namespace {
const trace::CounterId kDispatch = trace::intern("engine.dispatch");
constexpr std::uintptr_t kSlotTag = 1;
}  // namespace

void Engine::schedule_at(Time at, std::function<void()> fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  push(at, (static_cast<std::uintptr_t>(slot) << 1) | kSlotTag);
}

void Engine::schedule_frame(Time at, void* frame) {
  const auto what = reinterpret_cast<std::uintptr_t>(frame);
  assert((what & kSlotTag) == 0 && "coroutine frame address must be even");
  push(at, what);
}

void Engine::push(Time at, std::uintptr_t what) {
  if (at < now_) at = now_;
  if (fault_ != nullptr) {
    at = fault_->perturb_schedule(now_, at);
    if (at < now_) at = now_;  // a hook can delay events, never reorder past
  }
  const Event ev{at, next_seq_++, what};
  if (at == now_) {
    // Every lane event carries at == now(), which no heap event precedes,
    // and the lane drains before time advances: appending keeps it sorted.
    lane_.push_back(ev);
  } else {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
}

Engine::Event Engine::pop() {
  // The lane front runs first unless a heap event was scheduled for this
  // instant earlier (smaller seq): exactly the (at, seq) order of one heap.
  if (lane_head_ != lane_.size() &&
      (heap_.empty() || Later{}(heap_.front(), lane_[lane_head_]))) {
    const Event ev = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    } else if (lane_head_ >= 4096 && 2 * lane_head_ >= lane_.size()) {
      // A long same-instant burst: drop the consumed prefix (amortised O(1)).
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
    return ev;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

bool Engine::step() {
  if (empty()) return false;
  const Event ev = pop();
  now_ = ev.at;
  ++executed_;
  // Each dispatch resumes one logical process (a context switch in the
  // cooperative scheduler); a0 carries the scheduling sequence number.
  HUPC_TRACE_INSTANT(tracer_, trace::Category::engine, "dispatch",
                     trace::kEngineRank, ev.seq, pending());
  counters_->add(kDispatch, trace::kEngineRank);
  if ((ev.what & kSlotTag) == 0) {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.what))
        .resume();
    return true;
  }
  // Move the callback out first: it may schedule (and grow slots_) while
  // it runs, and its captures die after the call, as they always have.
  const auto slot = static_cast<std::uint32_t>(ev.what >> 1);
  std::function<void()> fn = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  fn();
  return true;
}

Time Engine::run() {
  while (step()) {
  }
  return now_;
}

Time Engine::run_until(Time deadline) {
  // If everything finishes early the clock stays where the last event ran;
  // callers that need an exact advance can schedule a no-op at the deadline.
  // A non-empty lane holds the earliest events (at == now()).
  while (!empty() &&
         (lane_head_ != lane_.size() ? lane_[lane_head_].at
                                     : heap_.front().at) <= deadline) {
    step();
  }
  return now_;
}

}  // namespace hupc::sim
