#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace hupc::util {

namespace {

// The value of --name as a T: the whole of `value` must parse.
template <class T>
T parse(const std::string& name, const std::string& value,
        const char* expected) {
  T out{};
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("--" + name + ": expected " + expected +
                                ", got '" + value + "'");
  }
  return out;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      flags_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      flags_.emplace(std::string(arg), argv[++i]);
    } else {
      flags_.emplace(std::string(arg), "true");
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : parse<std::int64_t>(name, *v, "an integer");
}

std::int64_t Cli::get_int_in_range(const std::string& name,
                                  std::int64_t fallback, std::int64_t min,
                                  std::int64_t max) const {
  const std::int64_t v = get_int(name, fallback);
  if (v < min || v > max) {
    throw std::invalid_argument("--" + name + ": expected an integer in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "], got '" +
                                get(name, "") + "'");
  }
  return v;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : parse<double>(name, *v, "a number");
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("--" + name +
                              ": expected true|1|yes or false|0|no, got '" +
                              *v + "'");
}

std::string Cli::choice(const std::string& name, const std::string& fallback,
                        std::initializer_list<std::string_view> allowed) const {
  return one_of("--" + name + " value", get(name, fallback), allowed);
}

std::vector<std::string> Cli::unread_flags() const {
  std::vector<std::string> unread;
  for (const auto& [name, value] : flags_) {
    if (!read_.contains(name)) unread.push_back(name);
  }
  return unread;
}

void Cli::reject_unread(const char* program) const {
  const auto unread = unread_flags();
  if (unread.empty()) return;
  for (const auto& name : unread) {
    std::fprintf(stderr, "%s: error: unknown flag --%s\n", program,
                 name.c_str());
  }
  std::exit(2);
}

std::string one_of(std::string_view what, std::string value,
                   std::initializer_list<std::string_view> allowed) {
  std::string expected;
  for (const std::string_view a : allowed) {
    if (a == value) return value;
    if (!expected.empty()) expected += '|';
    expected += a;
  }
  throw std::invalid_argument("unknown " + std::string(what) + " '" + value +
                              "' (expected " + expected + ")");
}

}  // namespace hupc::util
