#include "json_reader.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

namespace hupc::test {

namespace {

const JsonValue kNull;

[[noreturn]] void fail(std::string_view what, std::size_t offset) {
  throw std::runtime_error("json: " + std::string(what) + " at offset " +
                           std::to_string(offset));
}

}  // namespace

class JsonValue::Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return v;
  }

 private:
  static JsonValue make(Type type) {
    JsonValue v;
    v.type_ = type;
    return v;
  }

  static JsonValue boolean(bool b) {
    JsonValue v = make(Type::boolean);
    v.bool_ = b;
    return v;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v = make(Type::string);
        v.str_ = string();
        return v;
      }
      case 't':
        if (consume_literal("true")) return boolean(true);
        fail("invalid literal", pos_);
      case 'f':
        if (consume_literal("false")) return boolean(false);
        fail("invalid literal", pos_);
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid literal", pos_);
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue obj = make(Type::object);
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      JsonValue v = value();
      bool replaced = false;
      for (auto& [k, existing] : obj.obj_) {
        if (k == key) {
          existing = std::move(v);
          replaced = true;
          break;
        }
      }
      if (!replaced) obj.obj_.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue arr = make(Type::array);
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.arr_.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape", pos_);
          unsigned code = 0;
          const auto res = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
          if (res.ptr != text_.data() + pos_ + 4) fail("bad \\u escape", pos_);
          pos_ += 4;
          // The writer only escapes control characters; encode the code
          // point as UTF-8 (no surrogate pairs, but cover the BMP).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape", pos_);
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    JsonValue v = make(Type::number);
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v.num_);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_ ||
        pos_ == start) {
      fail("invalid number", start);
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

bool JsonValue::as_bool() const {
  if (type_ != Type::boolean) throw std::runtime_error("json: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::number) throw std::runtime_error("json: not a number");
  return num_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::string) throw std::runtime_error("json: not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::array) throw std::runtime_error("json: not an array");
  return arr_;
}

std::size_t JsonValue::size() const {
  if (type_ == Type::array) return arr_.size();
  if (type_ == Type::object) return obj_.size();
  throw std::runtime_error("json: not a container");
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (type_ != Type::object) throw std::runtime_error("json: not an object");
  for (const auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  return kNull;
}

bool JsonValue::contains(std::string_view key) const {
  if (type_ != Type::object) return false;
  for (const auto& [k, v] : obj_) {
    if (k == key) return true;
  }
  return false;
}

perf::Json JsonValue::to_json() const {
  switch (type_) {
    case Type::null: return perf::Json();
    case Type::boolean: return perf::Json(bool_);
    case Type::number: return perf::Json(num_);
    case Type::string: return perf::Json(str_);
    case Type::array: {
      perf::Json out = perf::Json::array();
      for (const JsonValue& v : arr_) out.push_back(v.to_json());
      return out;
    }
    case Type::object: {
      perf::Json out = perf::Json::object();
      for (const auto& [k, v] : obj_) out.set(k, v.to_json());
      return out;
    }
  }
  return perf::Json();
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case JsonValue::Type::null: return true;
    case JsonValue::Type::boolean: return a.bool_ == b.bool_;
    case JsonValue::Type::number: return a.num_ == b.num_;
    case JsonValue::Type::string: return a.str_ == b.str_;
    case JsonValue::Type::array: return a.arr_ == b.arr_;
    case JsonValue::Type::object: return a.obj_ == b.obj_;
  }
  return false;
}

}  // namespace hupc::test
