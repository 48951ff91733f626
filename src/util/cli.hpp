// The command-line layer every binary parses its flags through. Supports
// `--name=value`, `--name value` and boolean `--flag` forms.
//
// Every accessor (has/get/get_*/choice) marks the flag it names as *read*.
// After a binary has pulled all the flags it understands, calling
// reject_unread() turns any leftover flag — a typo, or an option this binary
// does not take — into a hard error instead of silently ignoring it.
//
// The typed accessors are strict: get_int and get_double take a value only
// if it parses in full, get_int_in only one that also lies in its range (by
// default the whole range of the type it returns), get_bool only
// true|1|yes or false|0|no, and choice only one of its allowed values.
// Anything else throws std::invalid_argument naming the flag; cli_main turns
// that into "<program>: error: ..." and exit status 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <concepts>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hupc::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// get_int as a T within [min, max], by default all of T that an int64_t
  /// holds; otherwise throws "--name: expected an integer in [min, max],
  /// got 'v'". An integer flag is never silently narrowed.
  template <std::integral T>
  [[nodiscard]] T get_int_in(const std::string& name, T fallback,
                             T min = std::numeric_limits<T>::min(),
                             T max = std::numeric_limits<T>::max()) const {
    constexpr auto kTop = std::numeric_limits<std::int64_t>::max();
    return static_cast<T>(get_int_in_range(
        name, static_cast<std::int64_t>(fallback),
        static_cast<std::int64_t>(min),
        std::cmp_less(kTop, max) ? kTop : static_cast<std::int64_t>(max)));
  }
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// The value of `--name`, which must be one of `allowed`; otherwise throws
  /// "unknown --name value 'v' (expected a|b)".
  [[nodiscard]] std::string choice(
      const std::string& name, const std::string& fallback,
      std::initializer_list<std::string_view> allowed) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Flags present on the command line that no accessor has asked about yet
  /// — i.e. flags this binary does not understand (assuming it has already
  /// read everything it does).
  [[nodiscard]] std::vector<std::string> unread_flags() const;

  /// Hard error on unknown flags: if unread_flags() is non-empty, print
  /// each offending `--flag` to stderr (prefixed with `program`) and
  /// exit(2). Call after all known flags have been read.
  void reject_unread(const char* program) const;

 private:
  [[nodiscard]] std::int64_t get_int_in_range(const std::string& name,
                                              std::int64_t fallback,
                                              std::int64_t min,
                                              std::int64_t max) const;
  /// Marks `name` read; its value, or null when the flag is absent.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// `value` if it is one of `allowed`; otherwise throws std::invalid_argument
/// "unknown <what> '<value>' (expected a|b)".
std::string one_of(std::string_view what, std::string value,
                   std::initializer_list<std::string_view> allowed);

/// The body of a binary's main(): parses argv and returns `body(cli)`. A
/// std::invalid_argument — a malformed or unknown flag value, or a config
/// that fails validation — is a usage error and exits 2; any other
/// std::exception is a failed run and exits 1. Both print one
/// "<program>: error: <what>" line.
template <class Body>
int cli_main(const char* program, int argc, const char* const* argv,
             Body&& body) {
  try {
    return body(Cli(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: error: %s\n", program, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", program, e.what());
    return 1;
  }
}

}  // namespace hupc::util
