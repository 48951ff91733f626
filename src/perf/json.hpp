// Minimal JSON writer for the benchmark-artifact pipeline.
//
// The perf subsystem writes the versioned benchmark artifact
// (`BENCH_results.json`) with object key order kept stable, so artifacts
// diff cleanly and a deterministic run re-serializes bit-identically. A
// dependency-free recursive value type covers that; the binaries never read
// JSON back, so the reader (parser and accessors) is test support
// (tests/json_reader.hpp).
//
// Numbers are serialized with std::to_chars (shortest round-trip form), so
// parsing a dump gives back every finite double exactly — the property the
// "bit-identical modeled metrics" regression gate relies on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hupc::perf {

/// One JSON value: null, bool, number (double), string, array, or object.
/// Objects preserve insertion order (lookup is linear — artifact objects
/// are small).
class Json {
 public:
  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::boolean), bool_(b) {}  // NOLINT
  Json(double n) : type_(Type::number), num_(n) {}  // NOLINT
  Json(int n) : Json(static_cast<double>(n)) {}     // NOLINT
  Json(std::int64_t n) : Json(static_cast<double>(n)) {}   // NOLINT
  Json(std::uint64_t n) : Json(static_cast<double>(n)) {}  // NOLINT
  Json(std::string s) : type_(Type::string), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                     // NOLINT

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  /// Append to an array (a null value becomes an empty array first).
  void push_back(Json v);
  /// Insert or overwrite `key` in an object (a null value becomes an empty
  /// object first); an overwrite keeps the key's position.
  void set(std::string_view key, Json v);

  /// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
  void write(std::ostream& os, int indent = 0) const;
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  enum class Type : std::uint8_t { null, boolean, number, string, array, object };

  void write_indented(std::ostream& os, int indent, int depth) const;

  Type type_ = Type::null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace hupc::perf
