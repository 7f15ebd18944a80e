#pragma once
/// \file json_value.hpp
/// \brief Minimal JSON reader shared by every input boundary, and the one
/// JSON string escaper every writer uses.
///
/// The repository deliberately has no external dependencies. This small
/// recursive-descent parser covers the JSON subset our input formats
/// need: objects, arrays, strings, numbers, booleans and null. It
/// rejects anything malformed with a position-annotated Error instead of
/// guessing. It started life next to the fault-plan decoder; it moved to
/// core once machine cards (`machines/machine_json`) grew a parse path,
/// because `machines` sits below `faults` in the link order.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"

namespace nodebench {

/// One parsed JSON value. Objects keep their keys in a std::map, which is
/// sufficient for plan files (key order never matters there).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::Array; }

  /// Typed accessors; each throws Error when the value has another kind.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<JsonValue>& asArray() const;
  [[nodiscard]] const std::map<std::string, JsonValue, std::less<>>& asObject()
      const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Convenience typed member lookups with defaults.
  [[nodiscard]] double numberOr(std::string_view key, double fallback) const;
  [[nodiscard]] std::string stringOr(std::string_view key,
                                     std::string_view fallback) const;

  /// Parses one complete JSON document (trailing garbage is an error).
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue, std::less<>> object_;
};

/// Appends `s` to `out` as a quoted JSON string: quote and backslash
/// escaped, \n \r \t as such, every other control character as \u00XX.
/// The tables' JSON export, the gap manifest, the trace file and the
/// serve replies all write strings through it.
void appendJsonString(std::string& out, std::string_view s);

}  // namespace nodebench
