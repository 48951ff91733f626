// Minimal JSON document model for the benchmark-artifact pipeline.
//
// The perf subsystem needs exactly three things from JSON: (1) write the
// versioned benchmark artifact (`BENCH_results.json`), (2) parse it back for
// schema round-trip tests, (3) keep object key order stable so artifacts
// diff cleanly and a deterministic run re-serializes bit-identically.
// A dependency-free recursive value type covers all three; anything fancier
// (SAX, string_view zero-copy, NaN extensions) is out of scope.
//
// Numbers are serialized with std::to_chars (shortest round-trip form), so
// parse(dump(x)) == x holds exactly for every finite double — the property
// the "bit-identical modeled metrics" regression gate relies on.
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
  enum class Type : std::uint8_t { null, boolean, number, string, array, object };

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

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::null; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::object; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  // --- arrays -----------------------------------------------------------
  void push_back(Json v);
  [[nodiscard]] const std::vector<Json>& items() const;
  [[nodiscard]] std::size_t size() const;

  // --- objects (insertion-ordered) --------------------------------------
  /// Insert or overwrite `key`.
  void set(std::string_view key, Json v);
  /// Null-constant reference if absent (use contains() to distinguish an
  /// absent key from a stored null).
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const;

  // --- (de)serialization ------------------------------------------------
  /// Parse one JSON document; throws std::runtime_error with an offset on
  /// malformed input or trailing garbage.
  [[nodiscard]] static Json parse(std::string_view text);

  /// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
  void write(std::ostream& os, int indent = 0) const;
  [[nodiscard]] std::string dump(int indent = 0) const;

  friend bool operator==(const Json& a, const Json& b);

 private:
  void write_indented(std::ostream& os, int indent, int depth) const;

  Type type_ = Type::null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace hupc::perf
