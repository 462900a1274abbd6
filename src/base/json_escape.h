#pragma once
// The one JSON string escaper (RFC 8259 §7) shared by every JSON writer in
// the tree: metrics and trace export (src/obs) and the bench result files
// (bench/).  It escapes `"` and `\`, uses the short forms \b \f \n \r \t,
// and writes every other byte below 0x20 as \u00XX, so a control character
// in a metric, span or bench name still yields a valid document.  Bytes
// >= 0x20 (UTF-8 included) pass through unchanged.

#include <string>
#include <string_view>

namespace yoso {

/// Appends `s` to `out` as a quoted JSON string.
inline void append_json_string(std::string& out, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out.push_back(kHex[byte >> 4]);
          out.push_back(kHex[byte & 0xf]);
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
}

/// `s` as a quoted JSON string.
inline std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_string(out, s);
  return out;
}

}  // namespace yoso
