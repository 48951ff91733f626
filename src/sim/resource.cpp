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
    : engine_(&engine), capacity_(capacity_bytes_per_sec) {
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
  ++generation_;
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
  const std::uint64_t gen = generation_;
  engine_->schedule_in(dt, [this, gen] { on_completion_event(gen); });
}

void FluidLink::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a newer state
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
