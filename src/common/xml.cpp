#include "common/xml.hpp"

#include <cctype>
#include <cstdlib>

#include "common/error.hpp"

namespace cloudwf {

std::string_view XmlElement::local_name() const {
  const std::size_t colon = name_.find(':');
  return colon == std::string::npos ? std::string_view(name_)
                                    : std::string_view(name_).substr(colon + 1);
}

const std::string* XmlElement::find_attribute(std::string_view name) const {
  for (const auto& [key, value] : attributes_)
    if (key == name) return &value;
  return nullptr;
}

const std::string& XmlElement::attribute(std::string_view name) const {
  const std::string* found = find_attribute(name);
  if (found == nullptr)
    throw InvalidArgument("XmlElement: <" + name_ + "> has no attribute '" + std::string(name) +
                          "'");
  return *found;
}

std::string XmlElement::attribute_or(std::string_view name, std::string fallback) const {
  const std::string* found = find_attribute(name);
  return found != nullptr ? *found : std::move(fallback);
}

std::vector<const XmlElement*> XmlElement::children_named(std::string_view name) const {
  std::vector<const XmlElement*> matches;
  for (const XmlElement& child : children_)
    if (child.local_name() == name) matches.push_back(&child);
  return matches;
}

const XmlElement* XmlElement::first_child(std::string_view name) const {
  for (const XmlElement& child : children_)
    if (child.local_name() == name) return &child;
  return nullptr;
}

void XmlElement::add_attribute(std::string name, std::string value) {
  attributes_.emplace_back(std::move(name), std::move(value));
}

XmlElement& XmlElement::add_child(std::string name) {
  children_.emplace_back(std::move(name));
  return children_.back();
}

void XmlElement::adopt_child(XmlElement element) { children_.push_back(std::move(element)); }

namespace {

void escape_into(std::string& out, std::string_view value, bool in_attribute) {
  for (char c : value) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"':
        if (in_attribute)
          out += "&quot;";
        else
          out += c;
        break;
      default: out += c;
    }
  }
}

/// Recursive-descent XML parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  XmlElement parse_document() {
    skip_prolog();
    XmlElement root = parse_element();
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  /// Throws the parse error for \p what at the current offset.
  [[noreturn]] void fail(std::string_view what) const {
    throw InvalidArgument("parse_xml: " + std::string(what) + " at offset " +
                          std::to_string(pos_));
  }

  [[nodiscard]] bool starts_with(std::string_view prefix) const {
    return text_.substr(pos_, prefix.size()) == prefix;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  void skip_comment() {
    if (!starts_with("<!--")) fail("expected comment");
    const std::size_t end = text_.find("-->", pos_ + 4);
    if (end == std::string_view::npos) fail("unterminated comment");
    pos_ = end + 3;
  }

  void skip_prolog() {
    skip_whitespace();
    if (starts_with("<?xml")) {
      const std::size_t end = text_.find("?>", pos_);
      if (end == std::string_view::npos) fail("unterminated XML declaration");
      pos_ = end + 2;
    }
    skip_misc();
  }

  void skip_misc() {
    for (;;) {
      skip_whitespace();
      if (starts_with("<!--"))
        skip_comment();
      else
        return;
    }
  }

  [[nodiscard]] std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' || c == ':' ||
          c == '.')
        ++pos_;
      else
        break;
    }
    if (pos_ == start) fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  [[nodiscard]] std::string decode_entities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      const std::size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) fail("unterminated entity");
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else if (!entity.empty() && entity[0] == '#') {
        const int base = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X') ? 16 : 10;
        const std::string digits(entity.substr(base == 16 ? 2 : 1));
        const long code = std::strtol(digits.c_str(), nullptr, base);
        if (code <= 0 || code >= 128) fail("unsupported character reference");
        out += static_cast<char>(code);
      } else {
        fail("unknown entity '&" + std::string(entity) + ";'");
      }
      i = semi + 1;
    }
    return out;
  }

  void parse_attributes(XmlElement& element) {
    for (;;) {
      skip_whitespace();
      if (pos_ >= text_.size()) fail("unterminated start tag");
      const char c = text_[pos_];
      if (c == '>' || c == '/') return;
      std::string name = parse_name();
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '=') fail("expected '='");
      ++pos_;
      skip_whitespace();
      if (pos_ >= text_.size() || (text_[pos_] != '"' && text_[pos_] != '\''))
        fail("expected quoted attribute value");
      const char quote = text_[pos_++];
      const std::size_t end = text_.find(quote, pos_);
      if (end == std::string_view::npos) fail("unterminated attribute value");
      element.add_attribute(std::move(name), decode_entities(text_.substr(pos_, end - pos_)));
      pos_ = end + 1;
    }
  }

  XmlElement parse_element() {
    if (pos_ >= text_.size() || text_[pos_] != '<') fail("expected '<'");
    if (depth_ == xml_max_nesting) fail("nesting too deep");
    ++pos_;
    XmlElement element(parse_name());
    parse_attributes(element);
    if (starts_with("/>")) {
      pos_ += 2;
      return element;
    }
    if (pos_ >= text_.size() || text_[pos_] != '>') fail("expected '>'");
    ++pos_;

    // Content: text, children, comments, CDATA, until the end tag.
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated element <" + element.name() + ">");
      if (starts_with("</")) {
        pos_ += 2;
        const std::string closing = parse_name();
        if (closing != element.name())
          fail("mismatched end tag </" + closing + "> for <" + element.name() + ">");
        skip_whitespace();
        if (pos_ >= text_.size() || text_[pos_] != '>') fail("expected '>'");
        ++pos_;
        return element;
      }
      if (starts_with("<!--")) {
        skip_comment();
        continue;
      }
      if (starts_with("<![CDATA[")) {
        const std::size_t end = text_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) fail("unterminated CDATA");
        element.append_text(text_.substr(pos_ + 9, end - pos_ - 9));
        pos_ = end + 3;
        continue;
      }
      if (text_[pos_] == '<') {
        ++depth_;
        element.adopt_child(parse_element());
        --depth_;
        continue;
      }
      const std::size_t next = text_.find('<', pos_);
      if (next == std::string_view::npos) fail("unterminated element <" + element.name() + ">");
      const std::string decoded = decode_entities(text_.substr(pos_, next - pos_));
      // Ignorable whitespace between child elements is dropped so that
      // pretty-printed documents round-trip byte-for-byte.
      if (decoded.find_first_not_of(" \t\r\n") != std::string::npos)
        element.append_text(decoded);
      pos_ = next;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // elements open around pos_
};

}  // namespace

std::string XmlElement::dump(int depth) const {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  std::string out = indent + "<" + name_;
  for (const auto& [key, value] : attributes_) {
    out += ' ' + key + "=\"";
    escape_into(out, value, true);
    out += '"';
  }
  if (children_.empty() && text_.empty()) {
    out += "/>\n";
    return out;
  }
  out += '>';
  if (!text_.empty()) escape_into(out, text_, false);
  if (!children_.empty()) {
    out += '\n';
    for (const XmlElement& child : children_) out += child.dump(depth + 1);
    out += indent;
  }
  out += "</" + name_ + ">\n";
  return out;
}

XmlElement parse_xml(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace cloudwf
