// The shared JSON string escaper (base/json_escape.h): RFC 8259 output for
// every control byte, and metrics/trace documents that stay parseable when
// an instrument or span name carries control characters.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "base/json_escape.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace yoso {
namespace {

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
  const std::optional<serve::JsonValue> v = serve::parse_json(json_quote(all));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string_or(""), all);
}

TEST(JsonEscape, ControlCharacterNamesGiveParseableMetricsAndTrace) {
  static constexpr const char* kName = "a\nb\x01";
  obs::metrics_registry().reset();
  obs::reset_tracing();
  obs::set_enabled(true);
  obs::counter_add(kName, 3);
  { const obs::TraceSpan span(kName); }
  obs::set_enabled(false);

  std::ostringstream metrics;
  obs::write_metrics_json(metrics, obs::metrics_registry().snapshot());
  const std::optional<serve::JsonValue> m = serve::parse_json(metrics.str());
  ASSERT_TRUE(m.has_value()) << metrics.str();
  ASSERT_NE(m->get("counters"), nullptr);
  ASSERT_NE(m->get("counters")->get(kName), nullptr);
  EXPECT_EQ(m->get("counters")->get(kName)->number_or(0), 3.0);

  std::ostringstream trace;
  obs::write_chrome_trace(trace);
  const std::optional<serve::JsonValue> t = serve::parse_json(trace.str());
  ASSERT_TRUE(t.has_value()) << trace.str();
  ASSERT_NE(t->get("traceEvents"), nullptr);
  bool found = false;
  for (const serve::JsonValue& e : t->get("traceEvents")->items())
    found = found || e.get("name")->string_or("") == kName;
  EXPECT_TRUE(found);

  obs::metrics_registry().reset();
  obs::reset_tracing();
}

}  // namespace
}  // namespace yoso
