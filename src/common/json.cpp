#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/error.hpp"

namespace cloudwf {

Json& Json::Object::operator[](const std::string& key) {
  for (auto& [k, v] : entries_)
    if (k == key) return v;
  entries_.emplace_back(key, Json{});
  return entries_.back().second;
}

const Json* Json::Object::find(std::string_view key) const {
  for (const auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

bool Json::as_bool() const {
  require(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  require(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  require(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  require(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  require(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
  require(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
  require(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  const Json* found = as_object().find(key);
  if (found == nullptr) throw InvalidArgument("Json: missing key '" + std::string(key) + "'");
  return *found;
}

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d));
    CLOUDWF_ASSERT(ec == std::errc{});
    out.append(buf, ptr);
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  CLOUDWF_ASSERT(ec == std::errc{});
  out.append(buf, ptr);
}

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  /// Throws the parse error for \p what at the current offset.
  [[noreturn]] void fail(std::string_view what) const {
    throw InvalidArgument("Json::parse: " + std::string(what) + " at offset " +
                          std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool try_consume(char c) {
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal");
    pos_ += literal.size();
  }

  Json parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == Json::max_nesting) fail("nesting too deep");
      ++depth_;
      Json value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    switch (c) {
      case '"': return Json(parse_string());
      case 't': expect_literal("true"); return Json(true);
      case 'f': expect_literal("false"); return Json(false);
      case 'n': expect_literal("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object object;
    if (try_consume('}')) return Json(std::move(object));
    do {
      skip_whitespace();
      std::string key = parse_string();
      expect(':');
      object[key] = parse_value();
    } while (try_consume(','));
    expect('}');
    return Json(std::move(object));
  }

  Json parse_array() {
    expect('[');
    Json::Array array;
    if (try_consume(']')) return Json(std::move(array));
    do {
      array.push_back(parse_value());
    } while (try_consume(','));
    expect(']');
    return Json(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // UTF-8 encode the code point (BMP only; surrogates passed through).
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
        default: fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) fail("invalid number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays/objects open around pos_
};

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * level), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    dump_number(out, as_number());
  } else if (is_string()) {
    dump_string(out, as_string());
  } else if (is_array()) {
    const Array& array = as_array();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i > 0) out += ',';
      newline(depth + 1);
      array[i].dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out += ']';
  } else {
    const Object& object = as_object();
    if (object.size() == 0) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : object) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      dump_string(out, key);
      out += indent > 0 ? ": " : ":";
      value.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out += '}';
  }
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace cloudwf
