#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace hupc::sim {

namespace {
const trace::CounterId kDispatch = trace::intern("engine.dispatch");
}  // namespace

void Engine::schedule_at(Time at, std::function<void()> fn) {
  if (at < now_) at = now_;
  if (fault_ != nullptr) {
    at = fault_->perturb_schedule(now_, at);
    if (at < now_) at = now_;  // a hook can delay events, never reorder past
  }
  queue_.push_back(Event{at, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool Engine::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.at;
  ++executed_;
  // Each dispatch resumes one logical process (a context switch in the
  // cooperative scheduler); a0 carries the scheduling sequence number.
  HUPC_TRACE_INSTANT(tracer_, trace::Category::engine, "dispatch",
                     trace::kEngineRank, ev.seq, queue_.size());
  counters_->add(kDispatch, trace::kEngineRank);
  ev.fn();
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
  while (!queue_.empty() && queue_.front().at <= deadline) {
    step();
  }
  return now_;
}

}  // namespace hupc::sim
