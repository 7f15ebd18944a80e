#include "core/json_value.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "core/utf8.hpp"

namespace nodebench {

namespace {

/// Input-boundary limits. Fault plans are supplied by users (and, in the
/// fuzz harness, by an adversary): a pathological document must fail with
/// a diagnostic, not exhaust the stack (deep nesting) or memory (huge
/// inputs). The document cap here is a generous backstop — this reader
/// also validates multi-megabyte trace exports in tests; the tight 1 MiB
/// fault-plan cap is enforced where plan *files* enter (FaultPlan::load).
constexpr std::size_t kMaxJsonBytes = 64u << 20;  // 64 MiB document cap
constexpr std::size_t kMaxJsonDepth = 64;         // nested containers

[[noreturn]] void parseError(std::size_t pos, const std::string& what) {
  throw Error("JSON parse error at offset " + std::to_string(pos) + ": " +
              what);
}

}  // namespace

bool JsonValue::asBool() const {
  if (kind_ != Kind::Bool) {
    throw Error("JSON value is not a boolean");
  }
  return bool_;
}

double JsonValue::asNumber() const {
  if (kind_ != Kind::Number) {
    throw Error("JSON value is not a number");
  }
  return number_;
}

const std::string& JsonValue::asString() const {
  if (kind_ != Kind::String) {
    throw Error("JSON value is not a string");
  }
  return string_;
}

const std::vector<JsonValue>& JsonValue::asArray() const {
  if (kind_ != Kind::Array) {
    throw Error("JSON value is not an array");
  }
  return array_;
}

const std::map<std::string, JsonValue, std::less<>>& JsonValue::asObject()
    const {
  if (kind_ != Kind::Object) {
    throw Error("JSON value is not an object");
  }
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) {
    return nullptr;
  }
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::numberOr(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->asNumber();
}

std::string JsonValue::stringOr(std::string_view key,
                                std::string_view fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? std::string(fallback) : v->asString();
}

/// Recursive-descent parser over a string_view; tracks the offset for
/// error messages.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue v = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) {
      parseError(pos_, "trailing characters after the document");
    }
    return v;
  }

 private:
  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skipWhitespace();
    if (pos_ >= text_.size()) {
      parseError(pos_, "unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      parseError(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consumeKeyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue parseValue() {
    const char c = peek();
    switch (c) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return parseString();
      case 't':
      case 'f': return parseBool();
      case 'n': return parseNull();
      default: return parseNumber();
    }
  }

  /// RAII nesting guard: each open container bumps the depth; anything
  /// past kMaxJsonDepth is rejected before it can recurse further (the
  /// parser is recursive-descent, so unchecked depth is unchecked stack).
  class DepthGuard {
   public:
    DepthGuard(JsonParser& p, std::size_t pos) : parser_(p) {
      if (++parser_.depth_ > kMaxJsonDepth) {
        parseError(pos, "nesting deeper than " +
                            std::to_string(kMaxJsonDepth) + " levels");
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    JsonParser& parser_;
  };

  JsonValue parseObject() {
    const DepthGuard guard(*this, pos_);
    expect('{');
    JsonValue out;
    out.kind_ = JsonValue::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      JsonValue key = parseString();
      expect(':');
      out.object_.emplace(std::move(key.string_), parseValue());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  JsonValue parseArray() {
    const DepthGuard guard(*this, pos_);
    expect('[');
    JsonValue out;
    out.kind_ = JsonValue::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.array_.push_back(parseValue());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  JsonValue parseString() {
    const std::size_t start = pos_;
    expect('"');
    JsonValue out;
    out.kind_ = JsonValue::Kind::String;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) {
        // RFC 8259: control characters must be escaped; a raw one usually
        // means a truncated or binary-corrupted plan file.
        parseError(pos_ - 1, "raw control character in string");
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          parseError(pos_, "unterminated escape");
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default:
            parseError(pos_ - 1, "unsupported escape sequence");
        }
      }
      out.string_.push_back(c);
    }
    if (pos_ >= text_.size()) {
      parseError(pos_, "unterminated string");
    }
    ++pos_;  // closing quote
    if (!validUtf8(out.string_)) {
      parseError(start, "string is not valid UTF-8");
    }
    return out;
  }

  JsonValue parseBool() {
    JsonValue out;
    out.kind_ = JsonValue::Kind::Bool;
    if (consumeKeyword("true")) {
      out.bool_ = true;
      return out;
    }
    if (consumeKeyword("false")) {
      out.bool_ = false;
      return out;
    }
    parseError(pos_, "expected a boolean");
  }

  JsonValue parseNull() {
    if (!consumeKeyword("null")) {
      parseError(pos_, "expected null");
    }
    return JsonValue{};
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      parseError(pos_, "expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      parseError(start, "malformed number '" + token + "'");
    }
    JsonValue out;
    out.kind_ = JsonValue::Kind::Number;
    out.number_ = value;
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

void appendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

JsonValue JsonValue::parse(std::string_view text) {
  if (text.size() > kMaxJsonBytes) {
    throw Error("JSON document is " + std::to_string(text.size()) +
                " bytes; the limit is " + std::to_string(kMaxJsonBytes));
  }
  return JsonParser(text).parseDocument();
}

}  // namespace nodebench
