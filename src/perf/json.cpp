#include "perf/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hupc::perf {

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; artifacts should never contain them, but a
    // defensive null beats emitting an unparseable token.
    os << "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

}  // namespace

Json Json::array() {
  Json j;
  j.type_ = Type::array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::object;
  return j;
}

void Json::push_back(Json v) {
  if (type_ == Type::null) type_ = Type::array;
  if (type_ != Type::array) throw std::runtime_error("json: not an array");
  arr_.push_back(std::move(v));
}

void Json::set(std::string_view key, Json v) {
  if (type_ == Type::null) type_ = Type::object;
  if (type_ != Type::object) throw std::runtime_error("json: not an object");
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::string(key), std::move(v));
}

void Json::write(std::ostream& os, int indent) const {
  write_indented(os, indent, 0);
}

void Json::write_indented(std::ostream& os, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) *
                            static_cast<std::size_t>(depth + 1),
                        ' ');
  const std::string close_pad(
      static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::null: os << "null"; break;
    case Type::boolean: os << (bool_ ? "true" : "false"); break;
    case Type::number: write_number(os, num_); break;
    case Type::string: write_escaped(os, str_); break;
    case Type::array: {
      if (arr_.empty()) {
        os << "[]";
        break;
      }
      os << '[' << nl;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        os << pad;
        arr_[i].write_indented(os, indent, depth + 1);
        if (i + 1 < arr_.size()) os << ',';
        os << nl;
      }
      os << close_pad << ']';
      break;
    }
    case Type::object: {
      if (obj_.empty()) {
        os << "{}";
        break;
      }
      os << '{' << nl;
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        os << pad;
        write_escaped(os, obj_[i].first);
        os << (indent > 0 ? ": " : ":");
        obj_[i].second.write_indented(os, indent, depth + 1);
        if (i + 1 < obj_.size()) os << ',';
        os << nl;
      }
      os << close_pad << '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

}  // namespace hupc::perf
