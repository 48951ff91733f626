// JSON reader for tests: parses the artifacts and traces the binaries write
// (perf::Json is write-only) into a read-only document with typed accessors.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perf/json.hpp"

namespace hupc::test {

/// One parsed JSON value: null, bool, number (double), string, array, or
/// object. Objects preserve document order (lookup is linear; a repeated
/// key overwrites in place, as perf::Json::set does).
class JsonValue {
 public:
  enum class Type : std::uint8_t { null, boolean, number, string, array, object };

  /// Parse one JSON document; throws std::runtime_error with an offset on
  /// malformed input or trailing garbage.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::null; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::object;
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  [[nodiscard]] const std::vector<JsonValue>& items() const;
  /// Element count of an array or member count of an object.
  [[nodiscard]] std::size_t size() const;

  /// Null-constant reference if absent (use contains() to distinguish an
  /// absent key from a stored null).
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;

  /// Serialize through perf::Json, so parse(v.dump()) == v checks the
  /// writer the binaries use.
  [[nodiscard]] std::string dump(int indent = 0) const {
    return to_json().dump(indent);
  }

  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  class Parser;

  [[nodiscard]] perf::Json to_json() const;

  Type type_ = Type::null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

}  // namespace hupc::test
