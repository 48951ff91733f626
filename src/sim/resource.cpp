#include "sim/resource.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace hupc::sim {

namespace {
// Bytes below this are considered delivered (absorbs float rounding at
// completion-event boundaries).
constexpr double kEpsilonBytes = 1e-6;
}  // namespace

FluidLink::FluidLink(Engine& engine, double capacity_bytes_per_sec)
    : EventNode{&on_completion_event},
      engine_(&engine),
      capacity_(capacity_bytes_per_sec) {
  assert(capacity_ > 0.0);
}

async::future<> FluidLink::transfer(double bytes, double max_rate) {
  total_bytes_ += bytes;
  async::promise<> done(*engine_);
  async::future<> fut = done.get_future();
  if (bytes <= kEpsilonBytes) {
    done.set_value();
    return fut;
  }
  advance_progress();
  transfers_.push_back(Xfer{
      bytes,
      max_rate > 0.0 ? max_rate : std::numeric_limits<double>::infinity(),
      0.0, std::move(done)});
  assign_rates();
  schedule_next_completion();
  return fut;
}

void FluidLink::advance_progress() {
  const Time now = engine_->now();
  const double elapsed = to_seconds(now - last_update_);
  last_update_ = now;
  if (elapsed <= 0.0) return;
  for (auto& t : transfers_) {
    t.remaining = std::max(0.0, t.remaining - elapsed * t.rate);
  }
}

void FluidLink::assign_rates() {
  // Water-filling with per-transfer caps: repeatedly give every uncapped
  // transfer an equal share of the leftover capacity; transfers whose cap is
  // below the share get exactly their cap and are removed from the pool.
  pool_.clear();
  for (auto& t : transfers_) pool_.push_back(&t);
  std::sort(pool_.begin(), pool_.end(),
            [](const Xfer* a, const Xfer* b) { return a->cap < b->cap; });

  double remaining_cap = capacity_;
  std::size_t remaining_n = pool_.size();
  for (Xfer* t : pool_) {
    const double fair = remaining_cap / static_cast<double>(remaining_n);
    t->rate = std::min(t->cap, fair);
    remaining_cap -= t->rate;
    --remaining_n;
  }
}

void FluidLink::schedule_next_completion() {
  live_seq_ = kNoEvent;
  if (transfers_.empty()) return;

  double min_finish = std::numeric_limits<double>::infinity();
  for (const auto& t : transfers_) {
    if (t.rate <= 0.0) continue;
    min_finish = std::min(min_finish, t.remaining / t.rate);
  }
  if (!std::isfinite(min_finish)) return;  // all rates zero: stalled link

  // Round up to the next nanosecond so remaining provably reaches ~0.
  const Time dt = std::max<Time>(1, from_seconds(min_finish) +
                                        (min_finish > 0.0 ? 1 : 0));
  live_seq_ = engine_->schedule_node(engine_->now() + dt, this);
}

void FluidLink::on_completion_event(EventNode* self, std::uint64_t seq) {
  auto& link = *static_cast<FluidLink*>(self);
  if (seq != link.live_seq_) return;  // superseded by a newer state
  link.complete_finished();
}

void FluidLink::complete_finished() {
  advance_progress();
  // Resolve finished transfers in start order (their callbacks are
  // same-instant events, so none runs here), then close the gaps.
  const auto finished = [](const Xfer& t) {
    return t.remaining <= kEpsilonBytes;
  };
  for (auto& t : transfers_) {
    if (finished(t)) t.done.set_value();
  }
  const auto kept = std::remove_if(transfers_.begin(), transfers_.end(),
                                   finished);
  const bool removed = kept != transfers_.end();
  transfers_.erase(kept, transfers_.end());
  if (removed) assign_rates();
  schedule_next_completion();
}

}  // namespace hupc::sim
