#pragma once

/// \file json.hpp
/// \brief Minimal JSON value model, parser and serializer.
///
/// Used for workflow interchange (dag/io) and experiment configuration.
/// Supports the full JSON grammar except \u escapes beyond the Basic
/// Multilingual Plane surrogate pairs, which are passed through verbatim.

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace cloudwf {

/// A JSON document node: null, bool, number, string, array or object.
///
/// Objects preserve key order of insertion (important for stable golden
/// files); numbers are stored as double, which covers every value cloudwf
/// serializes.
class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered object representation.
  class Object {
   public:
    /// Returns the value for \p key, inserting null if absent.
    Json& operator[](const std::string& key);
    /// Returns the value for \p key or nullptr.
    [[nodiscard]] const Json* find(std::string_view key) const;
    [[nodiscard]] bool contains(std::string_view key) const { return find(key) != nullptr; }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] auto begin() const { return entries_.begin(); }
    [[nodiscard]] auto end() const { return entries_.end(); }

   private:
    std::vector<std::pair<std::string, Json>> entries_;
  };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(long long i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw InvalidArgument on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object member access; throws if not an object or key missing.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Serializes; \p indent > 0 pretty-prints with that many spaces.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses \p text; throws InvalidArgument with position info on error,
  /// including for arrays and objects nested deeper than max_nesting.
  [[nodiscard]] static Json parse(std::string_view text);

  /// Deepest array/object nesting parse() accepts.  The parser recurses once
  /// per level, so without a limit a hostile document overflows the stack;
  /// cloudwf's own documents nest at most a handful deep.
  static constexpr std::size_t max_nesting = 256;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// \p value (a JSON number) as an unsigned integer of type \p T.  Throws a
/// one-line ValidationError naming \p what unless \p value is a whole number
/// in T's range: converting a fractional, negative or out-of-range double to
/// an integer type is undefined behaviour.
template <typename T>
[[nodiscard]] T json_unsigned(double value, std::string_view what) {
  static_assert(std::is_unsigned_v<T>);
  // 2^digits is exact in a double; T's maximum is not when T has 64 bits.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= 0 && value < limit && value == std::floor(value)))
    throw ValidationError(std::string(what) + " must be a whole number in [0, " +
                          std::to_string(std::numeric_limits<T>::max()) + "]");
  return static_cast<T>(value);
}

}  // namespace cloudwf
