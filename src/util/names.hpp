// Name tables: each preset or option name is mapped to what it names in one
// table, and a lookup of an unknown name fails listing the known ones.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace hupc::util {

/// One entry of a name table.
template <class T>
struct Named {
  std::string_view name;
  T value;
};

/// The entry of `table` (a range of structs with a `name` member) called
/// `name`. Throws std::invalid_argument "unknown <what> '<name>' (known: a,
/// b)" when there is none.
template <class Table>
[[nodiscard]] const auto& lookup(const Table& table, std::string_view what,
                                 std::string_view name) {
  for (const auto& entry : table) {
    if (entry.name == name) return entry;
  }
  std::string known;
  for (const auto& entry : table) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw std::invalid_argument("unknown " + std::string(what) + " '" +
                              std::string(name) + "' (known: " + known + ")");
}

}  // namespace hupc::util
