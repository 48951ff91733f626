#include "sim/engine.hpp"

#include <cassert>

namespace hupc::sim {

namespace {
const trace::CounterId kDispatch = trace::intern("engine.dispatch");
constexpr std::uintptr_t kNodeTag = 1;
constexpr std::size_t kArity = 4;
}  // namespace

std::uint64_t Engine::schedule_node(Time at, EventNode* node) {
  const auto what = reinterpret_cast<std::uintptr_t>(node);
  assert((what & kNodeTag) == 0 && "event node address must be even");
  return push(at, what | kNodeTag);
}

void Engine::schedule_at(Time at, std::coroutine_handle<> h) {
  const auto what = reinterpret_cast<std::uintptr_t>(h.address());
  assert((what & kNodeTag) == 0 && "coroutine frame address must be even");
  push(at, what);
}

std::uint64_t Engine::push(Time at, std::uintptr_t what) {
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
    heap_push(ev);
  }
  return ev.seq;
}

void Engine::heap_push(const Event& ev) {
  // Sift a hole up from the new leaf: each step moves one parent down, and
  // `ev` is written once, where the hole stops.
  std::size_t hole = heap_.size();
  heap_.push_back(ev);
  Event* const h = heap_.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(ev, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = ev;
}

Engine::Event Engine::heap_pop() {
  // Take the top, then sift the hole it leaves down along the smallest
  // children until the old last element fits there.
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  Event* const h = heap_.data();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    if (first >= n) break;
    std::size_t best;
    if (first + kArity <= n) {
      // A full group: the smallest child by a two-round tournament whose
      // picks are arithmetic, not branches (which child wins is a coin
      // toss, so a branch on it would mispredict half the time).
      const std::size_t a = first + std::size_t{before(h[first + 1], h[first])};
      const std::size_t b =
          first + 2 + std::size_t{before(h[first + 3], h[first + 2])};
      best = a + (b - a) * std::size_t{before(h[b], h[a])};
    } else {
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (before(h[c], h[best])) best = c;
      }
    }
    if (!before(h[best], last)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = last;
  return top;
}

Engine::Event Engine::pop() {
  // The lane front runs first unless a heap event was scheduled for this
  // instant earlier (smaller seq): exactly the (at, seq) order of one heap.
  if (lane_head_ != lane_.size() &&
      (heap_.empty() || before(lane_[lane_head_], heap_.front()))) {
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
  return heap_pop();
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
  if ((ev.what & kNodeTag) == 0) {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.what))
        .resume();
  } else {
    auto* node = reinterpret_cast<EventNode*>(ev.what & ~kNodeTag);
    node->fire(node, ev.seq);
  }
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
