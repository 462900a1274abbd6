// The shared JSON string escaper (base/json_escape.h): RFC 8259 output for
// every control byte, and metrics/trace documents that stay parseable when
// an instrument or span name carries control characters.

#include <gtest/gtest.h>

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "base/json_escape.h"
#include "json_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace yoso {
namespace {

struct Literal {
  std::optional<std::string> value;  // nullopt: the literal does not decode
  std::size_t end = 0;               // index just past the closing quote
};

// Every string literal of a document that expect_well_formed_json accepts,
// decoded, in document order.
std::vector<Literal> string_literals(const std::string& doc) {
  std::vector<Literal> out;
  for (std::size_t open = doc.find('"'); open != std::string::npos;) {
    std::size_t close = open + 1;
    while (close < doc.size() && doc[close] != '"')
      close += doc[close] == '\\' ? 2 : 1;
    if (close >= doc.size()) break;
    out.push_back({decode_json_string(
                       std::string_view(doc).substr(open, close - open + 1)),
                   close + 1});
    open = doc.find('"', close + 1);
  }
  return out;
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  EXPECT_EQ(json_quote(std::string_view("\0\x01\x1f", 3)),
            "\"\\u0000\\u0001\\u001f\"");
  EXPECT_EQ(json_quote("caf\xc3\xa9 \x7f"), "\"caf\xc3\xa9 \x7f\"");
}

TEST(JsonEscape, EveryAsciiByteRoundTripsThroughTheParser) {
  std::string all;
  for (int c = 0; c < 128; ++c) all.push_back(static_cast<char>(c));
  const std::string quoted = json_quote(all);
  expect_well_formed_json(quoted);
  const std::optional<std::string> v = decode_json_string(quoted);
  ASSERT_TRUE(v.has_value()) << quoted;
  EXPECT_EQ(*v, all);
}

TEST(JsonEscape, ControlCharacterNamesGiveParseableMetricsAndTrace) {
  static constexpr const char* kName = "a\nb\x01";
  obs::metrics_registry().reset();
  obs::reset_tracing();
  obs::set_enabled(true);
  obs::counter_add(kName, 3);
  { const obs::TraceSpan span(kName); }
  obs::set_enabled(false);

  // The counter's key sits between "counters" and "gauges" and reads 3.
  std::ostringstream metrics;
  obs::write_metrics_json(metrics, obs::metrics_registry().snapshot());
  const std::string m = metrics.str();
  expect_well_formed_json(m);
  bool in_counters = false;
  bool counted = false;
  for (const Literal& lit : string_literals(m)) {
    ASSERT_TRUE(lit.value.has_value()) << m;
    if (*lit.value == "counters") in_counters = true;
    if (*lit.value == "gauges") in_counters = false;
    if (!in_counters || *lit.value != kName) continue;
    ASSERT_EQ(m.compare(lit.end, 2, ": "), 0) << m;
    std::uint64_t value = 0;
    const char* number = m.data() + lit.end + 2;
    counted = std::from_chars(number, m.data() + m.size(), value).ec ==
                  std::errc() &&
              value == 3;
  }
  EXPECT_TRUE(counted) << m;

  std::ostringstream trace;
  obs::write_chrome_trace(trace);
  const std::string t = trace.str();
  expect_well_formed_json(t);
  bool found = false;
  for (const Literal& lit : string_literals(t)) {
    ASSERT_TRUE(lit.value.has_value()) << t;
    found = found || *lit.value == kName;
  }
  EXPECT_TRUE(found) << t;

  obs::metrics_registry().reset();
  obs::reset_tracing();
}

}  // namespace
}  // namespace yoso
