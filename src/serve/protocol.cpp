#include "serve/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "base/contract.h"
#include "base/json_escape.h"

namespace yoso {
namespace serve {
namespace {

// Nesting cap: protocol messages are shallow; a pathological input must not
// recurse the stack away.
constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    std::optional<JsonValue> v = value(0);
    if (v.has_value()) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing bytes after document");
        v.reset();
      }
    }
    if (!v.has_value() && error != nullptr) *error = error_;
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_.empty())
      error_ = "json: " + what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  std::optional<std::string> string_body() {
    // Opening quote already consumed.
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return std::nullopt;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed by this protocol; lone surrogates encode as-is).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("unknown escape");
            return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      JsonValue obj = JsonValue::object();
      skip_ws();
      if (consume('}')) return obj;
      while (true) {
        if (!consume('"')) {
          fail("expected object key");
          return std::nullopt;
        }
        std::optional<std::string> key = string_body();
        if (!key.has_value()) return std::nullopt;
        if (!consume(':')) {
          fail("expected ':'");
          return std::nullopt;
        }
        std::optional<JsonValue> member = value(depth + 1);
        if (!member.has_value()) return std::nullopt;
        obj.set(*key, std::move(*member));
        if (consume(',')) continue;
        if (consume('}')) return obj;
        fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      JsonValue arr = JsonValue::array();
      skip_ws();
      if (consume(']')) return arr;
      while (true) {
        std::optional<JsonValue> item = value(depth + 1);
        if (!item.has_value()) return std::nullopt;
        arr.push(std::move(*item));
        if (consume(',')) continue;
        if (consume(']')) return arr;
        fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
    if (c == '"') {
      ++pos_;
      std::optional<std::string> s = string_body();
      if (!s.has_value()) return std::nullopt;
      return JsonValue::string(std::move(*s));
    }
    if (literal("true")) return JsonValue::boolean(true);
    if (literal("false")) return JsonValue::boolean(false);
    if (literal("null")) return JsonValue();
    // Number.
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) {
      fail("unexpected character");
      return std::nullopt;
    }
    const std::string num = text_.substr(start, pos_ - start);
    // JSON forbids leading zeros ("01") and a bare minus; strtod accepts
    // both, so gate on the grammar first.
    const std::size_t digits = num[0] == '-' ? 1 : 0;
    if (num.size() == digits ||
        (num[digits] == '0' && num.size() > digits + 1 &&
         std::isdigit(static_cast<unsigned char>(num[digits + 1])) != 0)) {
      fail("bad number");
      return std::nullopt;
    }
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("bad number");
      return std::nullopt;
    }
    return JsonValue::number(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

void dump_number(double v, std::string& out) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void dump_value(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.bool_or(false) ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      dump_number(v.number_or(0.0), out);
      break;
    case JsonValue::Kind::kString:
      append_json_string(out, v.string_or(""));
      break;
    case JsonValue::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(item, out);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        append_json_string(out, key);
        out.push_back(':');
        dump_value(member, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::bool_or(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::number_or(double fallback) const {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

std::string JsonValue::string_or(const std::string& fallback) const {
  return kind_ == Kind::kString ? string_ : fallback;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = members_.find(key);
  return it != members_.end() ? &it->second : nullptr;
}

void JsonValue::set(const std::string& key, JsonValue value) {
  YOSO_REQUIRE(kind_ == Kind::kObject, "JsonValue::set on a non-object");
  members_.insert_or_assign(key, std::move(value));
}

void JsonValue::push(JsonValue value) {
  YOSO_REQUIRE(kind_ == Kind::kArray, "JsonValue::push on a non-array");
  items_.push_back(std::move(value));
}

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error) {
  Parser p(text);
  return p.run(error);
}

JsonValue ok_response() {
  JsonValue v = JsonValue::object();
  v.set("ok", JsonValue::boolean(true));
  return v;
}

JsonValue error_response(const std::string& message) {
  JsonValue v = JsonValue::object();
  v.set("ok", JsonValue::boolean(false));
  v.set("error", JsonValue::string(message));
  return v;
}

}  // namespace serve
}  // namespace yoso
