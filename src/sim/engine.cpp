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
  const std::uint64_t seq = next_seq_++;
  if (at - now_ < kWheel) {
    wheel_push(at, seq, what);
  } else {
    heap_push(Event{at, seq, what});
  }
  return seq;
}

void Engine::wheel_push(Time at, std::uint64_t seq, std::uintptr_t what) {
  // The slot holds only events at `at` (every wheel event is due within
  // kWheel of now()), and they arrive in seq order: appending keeps the
  // slot sorted by (at, seq).
  std::uint32_t r = free_;
  if (r != kNil) {
    free_ = records_[r].next;
    records_[r] = Record{seq, what, kNil};
  } else {
    r = static_cast<std::uint32_t>(records_.size());
    records_.push_back(Record{seq, what, kNil});
  }
  const auto s = static_cast<std::size_t>(at) & (kSlots - 1);
  Slot& slot = slots_[s];
  if (slot.head == kNil) {
    slot.head = r;
    words_[s / 64] |= std::uint64_t{1} << (s % 64);
    summary_ |= std::uint64_t{1} << (s / 64);
  } else {
    records_[slot.tail].next = r;
  }
  slot.tail = r;
  ++wheel_size_;
}

std::size_t Engine::wheel_first() const noexcept {
  if (summary_ == 0) return kSlots;
  const auto from = static_cast<std::size_t>(now_) & (kSlots - 1);
  const std::size_t w = from / 64;
  const std::uint64_t here = words_[w] & (~std::uint64_t{0} << (from % 64));
  if (here != 0) {
    return w * 64 + static_cast<std::size_t>(__builtin_ctzll(here));
  }
  // Later words first, then wrap round to the lowest occupied word (which
  // may be w itself, below `from`: those slots are the furthest ahead).
  const std::uint64_t later = summary_ & (~std::uint64_t{1} << w);
  const auto v =
      static_cast<std::size_t>(__builtin_ctzll(later != 0 ? later : summary_));
  return v * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[v]));
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
  // The wheel's first slot holds its earliest time, and the slot's front
  // its smallest seq there. It runs first unless the heap top precedes it
  // (a far event scheduled earlier for the same time, or an earlier one):
  // exactly the (at, seq) order of one heap.
  const std::size_t s = wheel_first();
  if (s != kSlots) {
    Slot& slot = slots_[s];
    const std::uint32_t r = slot.head;
    const Record rec = records_[r];
    const Event ev{slot_time(s), rec.seq, rec.what};
    if (heap_.empty() || before(ev, heap_.front())) {
      slot.head = rec.next;
      if (rec.next == kNil) {
        words_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
        if (words_[s / 64] == 0) summary_ &= ~(std::uint64_t{1} << (s / 64));
      }
      records_[r].next = free_;
      free_ = r;
      --wheel_size_;
      return ev;
    }
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
  if (tracer_ != nullptr) {
    tracer_->instant(trace::Category::engine, "dispatch", trace::kEngineRank,
                     ev.seq, pending());
  }
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
  for (;;) {
    const std::size_t s = wheel_first();
    const bool wheel_due = s != kSlots && slot_time(s) <= deadline;
    if (!wheel_due && (heap_.empty() || heap_.front().at > deadline)) break;
    step();
  }
  return now_;
}

}  // namespace hupc::sim
