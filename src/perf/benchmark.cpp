#include "perf/benchmark.hpp"

#include <algorithm>
#include <stdexcept>

namespace hupc::perf {

const char* to_string(Direction d) noexcept {
  return d == Direction::higher_is_better ? "higher_is_better"
                                          : "lower_is_better";
}

const char* to_string(Kind k) noexcept {
  return k == Kind::modeled ? "modeled" : "measured";
}

const char* to_string(Tier t) noexcept {
  return t == Tier::smoke ? "smoke" : "full";
}

Tier parse_tier(std::string_view s) {
  if (s == "smoke") return Tier::smoke;
  if (s == "full") return Tier::full;
  throw std::invalid_argument("unknown tier '" + std::string(s) +
                              "' (expected smoke|full)");
}

const MetricSeries* Result::metric(std::string_view name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double Result::median(std::string_view name) const {
  const MetricSeries* m = metric(name);
  if (m == nullptr || m->samples.empty()) {
    throw std::out_of_range("benchmark '" + id + "' has no metric '" +
                            std::string(name) + "'");
  }
  std::vector<double> sorted = m->samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

std::uint64_t Result::counter(std::string_view name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0;
}

void Context::set_config(std::string key, std::string value) {
  for (auto& [k, v] : result_.config) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  result_.config.emplace_back(std::move(key), std::move(value));
}

void Context::report(std::string name, double value, std::string unit,
                     Direction direction, Kind kind) {
  if (warmup_rep()) return;
  for (auto& m : result_.metrics) {
    if (m.name == name) {
      m.samples.push_back(value);
      return;
    }
  }
  MetricSeries series;
  series.name = std::move(name);
  series.unit = std::move(unit);
  series.direction = direction;
  series.kind = kind;
  series.samples.push_back(value);
  result_.metrics.push_back(std::move(series));
}

void Context::report_counter(std::string name, std::uint64_t value) {
  if (warmup_rep()) return;
  for (auto& [k, v] : result_.counters) {
    if (k == name) {
      v = value;
      return;
    }
  }
  result_.counters.emplace_back(std::move(name), value);
}

void Context::report_trace_counters(
    const trace::Counters& counters, std::initializer_list<const char*> names) {
  for (const char* name : names) report_counter(name, counters.total(name));
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(Benchmark b) {
  if (b.id.empty()) throw std::invalid_argument("perf: empty benchmark id");
  if (!b.fn) {
    throw std::invalid_argument("perf: benchmark '" + b.id + "' has no body");
  }
  for (const auto& existing : benchmarks_) {
    if (existing.id == b.id) {
      throw std::invalid_argument("perf: duplicate benchmark id '" + b.id +
                                  "'");
    }
  }
  benchmarks_.push_back(std::move(b));
}

std::vector<const Benchmark*> Registry::match(std::string_view filter,
                                              Tier tier) const {
  // Split the comma-separated filter into substrings; a benchmark matches
  // when any substring occurs in its id.
  std::vector<std::string_view> needles;
  std::size_t start = 0;
  while (start <= filter.size()) {
    const std::size_t comma = filter.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? filter.size() : comma;
    if (end > start) needles.push_back(filter.substr(start, end - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }

  std::vector<const Benchmark*> out;
  for (const auto& b : benchmarks_) {
    if (tier == Tier::smoke && !b.in_smoke) continue;
    if (!needles.empty()) {
      bool hit = false;
      for (const auto needle : needles) {
        if (b.id.find(needle) != std::string::npos) {
          hit = true;
          break;
        }
      }
      if (!hit) continue;
    }
    out.push_back(&b);
  }
  return out;
}

}  // namespace hupc::perf
