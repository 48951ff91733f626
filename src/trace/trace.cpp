#include "trace/trace.hpp"

#include <algorithm>
#include <cstring>

namespace hupc::trace {

const char* to_string(Category cat) noexcept {
  switch (cat) {
    case Category::engine: return "engine";
    case Category::gas: return "gas";
    case Category::net: return "net";
    case Category::sched: return "sched";
    case Category::core: return "core";
    case Category::user: return "user";
  }
  return "?";
}

bool operator==(const TraceEvent& a, const TraceEvent& b) {
  return a.ts == b.ts && a.rank == b.rank && a.cat == b.cat &&
         a.phase == b.phase && std::strcmp(a.name, b.name) == 0 &&
         a.a0 == b.a0 && a.a1 == b.a1;
}

std::uint64_t Summary::counter_total(const std::string& name) const {
  const auto it = counters.find(name);
  if (it == counters.end()) return 0;
  std::uint64_t total = 0;
  for (std::uint64_t v : it->second) total += v;
  return total;
}

std::uint64_t Summary::counter(const std::string& name, int rank) const {
  const auto it = counters.find(name);
  const auto idx = static_cast<std::size_t>(rank + 1);
  if (it == counters.end() || idx >= it->second.size()) return 0;
  return it->second[idx];
}

Tracer::Tracer(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void Tracer::record(Category cat, char phase, const char* name, int rank,
                    std::uint64_t a0, std::uint64_t a1) {
  TraceEvent ev{clock_ ? clock_() : 0,
                rank,
                cat,
                phase,
                name,
                a0,
                a1};
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[static_cast<std::size_t>(recorded_ % capacity_)] = ev;
  }
  ++recorded_;
}

void Tracer::begin(Category cat, const char* name, int rank, std::uint64_t a0,
                   std::uint64_t a1) {
  record(cat, 'B', name, rank, a0, a1);
}

void Tracer::end(Category cat, const char* name, int rank) {
  record(cat, 'E', name, rank, 0, 0);
}

void Tracer::instant(Category cat, const char* name, int rank,
                     std::uint64_t a0, std::uint64_t a1) {
  record(cat, 'i', name, rank, a0, a1);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  if (recorded_ <= capacity_) {
    out.assign(ring_.begin(), ring_.end());
  } else {
    // The ring wrapped: the oldest surviving record sits at the write head.
    const auto head = static_cast<std::size_t>(recorded_ % capacity_);
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

Summary Tracer::summary() const {
  Summary s;
  s.recorded = recorded_;
  s.dropped = dropped();
  s.counters = counters_.snapshot();

  const auto events = snapshot();
  const std::size_t lanes = static_cast<std::size_t>(ranks()) + 1;
  s.rank_time.assign(std::max<std::size_t>(lanes, 1), {});

  // Per-lane stack of open begins; LIFO matching mirrors scope nesting.
  struct Open {
    Category cat;
    const char* name;
    VTime ts;
  };
  std::vector<std::vector<Open>> open(s.rank_time.size());
  VTime last_ts = 0;

  auto lane_of = [&](int rank) -> std::size_t {
    const auto idx = static_cast<std::size_t>(rank < 0 ? 0 : rank + 1);
    if (idx >= s.rank_time.size()) {
      s.rank_time.resize(idx + 1);
      open.resize(idx + 1);
    }
    return idx;
  };

  for (const auto& ev : events) {
    last_ts = std::max(last_ts, ev.ts);
    const std::size_t lane = lane_of(ev.rank);
    const auto cat = static_cast<std::size_t>(ev.cat);
    switch (ev.phase) {
      case 'B':
        ++s.events[cat];
        open[lane].push_back(Open{ev.cat, ev.name, ev.ts});
        break;
      case 'E':
        if (!open[lane].empty()) {
          const Open b = open[lane].back();
          open[lane].pop_back();
          s.rank_time[lane][static_cast<std::size_t>(b.cat)] +=
              std::max<VTime>(ev.ts - b.ts, 0);
        }
        break;
      default:  // instants
        ++s.events[cat];
        break;
    }
  }
  // Close begins whose ends fell outside the retained window (or are still
  // open) at the last retained timestamp so totals stay non-negative.
  for (std::size_t lane = 0; lane < open.size(); ++lane) {
    for (const Open& b : open[lane]) {
      s.rank_time[lane][static_cast<std::size_t>(b.cat)] +=
          std::max<VTime>(last_ts - b.ts, 0);
    }
  }
  return s;
}

void Tracer::clear() {
  ring_.clear();
  recorded_ = 0;
  counters_.clear();
}

}  // namespace hupc::trace
