#include "serve/json_writer.hpp"

#include <cmath>
#include <cstdio>

#include "core/json_value.hpp"

namespace nodebench::serve {

std::string jsonDouble(double value) {
  if (!std::isfinite(value)) {
    return value > 0 ? "\"inf\"" : (value < 0 ? "\"-inf\"" : "\"nan\"");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonWriter::comma() {
  if (needComma_) {
    out_.push_back(',');
  }
  needComma_ = true;
}

JsonWriter& JsonWriter::beginObject() {
  comma();
  out_.push_back('{');
  needComma_ = false;
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  out_.push_back('}');
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  comma();
  out_.push_back('[');
  needComma_ = false;
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  out_.push_back(']');
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  appendJsonString(out_, k);
  out_.push_back(':');
  needComma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  appendJsonString(out_, s);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  out_ += jsonDouble(d);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t i) {
  comma();
  out_ += std::to_string(i);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

}  // namespace nodebench::serve
