#include "trace/counters.hpp"

#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace hupc::trace {

namespace {

/// The process-wide name table. Function-local so ids interned during
/// static initialisation of any translation unit find it constructed.
struct NameTable {
  std::mutex mu;
  std::deque<std::string> names;  // id -> name; deque keeps references stable
  std::unordered_map<std::string_view, CounterId> ids;
};

NameTable& table() {
  static NameTable t;
  return t;
}

std::optional<CounterId> find(std::string_view name) {
  NameTable& t = table();
  const std::lock_guard lock(t.mu);
  const auto it = t.ids.find(name);
  if (it == t.ids.end()) return std::nullopt;
  return it->second;
}

}  // namespace

CounterId intern(std::string_view name) {
  NameTable& t = table();
  const std::lock_guard lock(t.mu);
  if (const auto it = t.ids.find(name); it != t.ids.end()) return it->second;
  const auto id = static_cast<CounterId>(t.names.size());
  t.ids.emplace(t.names.emplace_back(name), id);
  return id;
}

const std::string& name_of(CounterId id) {
  NameTable& t = table();
  const std::lock_guard lock(t.mu);
  return t.names.at(id);
}

std::uint64_t Counters::total(CounterId id) const noexcept {
  if (id >= cells_.size()) return 0;
  std::uint64_t sum = 0;
  for (const std::uint64_t v : cells_[id]) sum += v;
  return sum;
}

std::uint64_t Counters::get(std::string_view name, int rank) const {
  const auto id = find(name);
  return id ? get(*id, rank) : 0;
}

std::uint64_t Counters::total(std::string_view name) const {
  const auto id = find(name);
  return id ? total(*id) : 0;
}

std::map<std::string, std::vector<std::uint64_t>> Counters::snapshot() const {
  std::map<std::string, std::vector<std::uint64_t>> out;
  for (CounterId id = 0; id < cells_.size(); ++id) {
    if (!cells_[id].empty()) out.emplace(name_of(id), cells_[id]);
  }
  return out;
}

}  // namespace hupc::trace
