#pragma once
// Test-only JSON checks for the documents the tree emits (metrics, trace,
// bench files): a structural well-formedness scan and a decoder for one
// string literal.  Both are deliberately small — enough to catch broken
// escaping and structure, not a general JSON reader.

#include <gtest/gtest.h>

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace yoso {

// Scans a JSON document with a minimal state machine: strings (with escape
// handling) are skipped, braces and brackets must nest and balance.  Enough
// to catch unterminated strings, raw control bytes inside strings, trailing
// commas before ']' / '}', and unbalanced structure in the emitted
// documents.
inline void expect_well_formed_json(const std::string& doc) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (const char c : doc) {
    if (in_string) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20u)
          << "raw control byte in a string in: " << doc;
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        ASSERT_FALSE(stack.empty()) << "unbalanced close in: " << doc;
        ASSERT_EQ(stack.back(), c) << "mismatched close in: " << doc;
        ASSERT_NE(prev_significant, ',') << "trailing comma in: " << doc;
        stack.pop_back();
        break;
      default: break;
    }
    if (c != ' ' && c != '\n' && c != '\t') prev_significant = c;
  }
  EXPECT_FALSE(in_string) << "unterminated string in: " << doc;
  EXPECT_TRUE(stack.empty()) << "unclosed scope in: " << doc;
}

// Decodes exactly one JSON string literal (RFC 8259 §7), quotes included:
// the short escapes and \uXXXX for an ASCII code point (the tree's writers
// escape only bytes below 0x20, so a higher code point is rejected rather
// than transcoded).  nullopt when `literal` is anything else — a raw
// control byte, a bad escape, or characters after the closing quote.
inline std::optional<std::string> decode_json_string(std::string_view literal) {
  if (literal.size() < 2 || literal.front() != '"' || literal.back() != '"')
    return std::nullopt;
  std::string out;
  for (std::size_t i = 1; i + 1 < literal.size(); ++i) {
    const char c = literal[i];
    if (static_cast<unsigned char>(c) < 0x20 || c == '"') return std::nullopt;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (++i + 1 >= literal.size()) return std::nullopt;
    switch (literal[i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (i + 5 >= literal.size()) return std::nullopt;
        const char* hex = literal.data() + i + 1;
        std::uint32_t cp = 0;
        const auto [end, ec] = std::from_chars(hex, hex + 4, cp, 16);
        if (ec != std::errc() || end != hex + 4 || cp >= 0x80)
          return std::nullopt;
        out.push_back(static_cast<char>(cp));
        i += 4;
        break;
      }
      default: return std::nullopt;
    }
  }
  return out;
}

}  // namespace yoso
