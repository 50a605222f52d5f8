#pragma once

/// \file xml.hpp
/// \brief Minimal XML DOM parser for Pegasus DAX ingestion.
///
/// Supports the subset real DAX files use: the XML declaration, comments,
/// elements with attributes, nested children, text content, CDATA, and the
/// five predefined entities.  Namespaces are kept as literal prefixes
/// (DAX tags are matched by local name).  No DTDs, no processing
/// instructions beyond the declaration.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cloudwf {

/// One XML element: name, attributes, child elements and accumulated text.
class XmlElement {
 public:
  XmlElement() = default;
  explicit XmlElement(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Local name with any namespace prefix stripped ("pg:job" -> "job").
  [[nodiscard]] std::string_view local_name() const;

  /// Attribute value or nullptr.
  [[nodiscard]] const std::string* find_attribute(std::string_view name) const;
  /// Attribute value; throws InvalidArgument when missing.
  [[nodiscard]] const std::string& attribute(std::string_view name) const;
  /// Attribute value or \p fallback.
  [[nodiscard]] std::string attribute_or(std::string_view name, std::string fallback) const;
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }

  [[nodiscard]] const std::vector<XmlElement>& children() const { return children_; }
  /// Child elements whose local name equals \p name.
  [[nodiscard]] std::vector<const XmlElement*> children_named(std::string_view name) const;
  /// First child with local name \p name or nullptr.
  [[nodiscard]] const XmlElement* first_child(std::string_view name) const;

  /// Concatenated text content of this element (children's text excluded).
  [[nodiscard]] const std::string& text() const { return text_; }

  // Builder API (used by the parser and by DAX export).
  void set_name(std::string name) { name_ = std::move(name); }
  void add_attribute(std::string name, std::string value);
  XmlElement& add_child(std::string name);
  void adopt_child(XmlElement element);
  void append_text(std::string_view text) { text_ += text; }

  /// Serializes the element tree (2-space indentation, escaped values).
  [[nodiscard]] std::string dump(int depth = 0) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<XmlElement> children_;
  std::string text_;
};

/// Deepest element nesting parse_xml accepts (the root is level 1).  The
/// parser recurses once per level, so without a limit a hostile document
/// overflows the stack; DAX files nest three levels deep.
inline constexpr std::size_t xml_max_nesting = 256;

/// Parses one XML document and returns its root element.
/// Throws InvalidArgument with offset information on malformed input,
/// including elements nested deeper than xml_max_nesting.
[[nodiscard]] XmlElement parse_xml(std::string_view text);

}  // namespace cloudwf
