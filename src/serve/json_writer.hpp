#pragma once
/// \file json_writer.hpp
/// \brief Tiny JSON emitter for the serve daemon's wire format.
///
/// The daemon's responses and persisted request specs are JSON. Two
/// properties matter more than convenience here:
///
///  - **Exact doubles.** Numbers render with "%.17g", enough digits to
///    round-trip any IEEE-754 double bit-exactly. Result files are the
///    artifact the crash-recovery proof compares byte-for-byte, so the
///    renderer must be deterministic down to the last digit.
///  - **Strict escaping.** Table text and error messages flow into
///    responses verbatim; the writer escapes every control character,
///    quote and backslash (core/json_value.hpp's appendJsonString) so
///    no payload can break the framing.
///
/// This is a writer only — the daemon parses requests with the
/// core/json_value.hpp reader (`nodebench::JsonValue`), keeping one
/// parser in the tree.

#include <cstdint>
#include <string>
#include <string_view>

namespace nodebench::serve {

/// Renders a double with enough precision to round-trip bit-exactly
/// ("%.17g"); non-finite values render as quoted strings ("inf", "nan")
/// since JSON has no literal for them.
[[nodiscard]] std::string jsonDouble(double value);

/// Incremental object/array builder. Minimal by design: the call sites
/// know their structure statically, the builder only handles commas,
/// escaping and nesting.
class JsonWriter {
 public:
  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Object member key (must be inside an object, before a value).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint64_t i);
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(bool b);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  bool needComma_ = false;
};

}  // namespace nodebench::serve
