#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ios>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

namespace qa {
namespace {

JsonValue parse_or_die(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(text, &v, &error)) << error << "\n" << text;
  return v;
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_or_die("null").type, JsonValue::Type::kNull);
  EXPECT_TRUE(parse_or_die("true").boolean);
  EXPECT_FALSE(parse_or_die("false").boolean);
  EXPECT_DOUBLE_EQ(parse_or_die("-12.5e2").number, -1250.0);
  EXPECT_EQ(parse_or_die("\"hi\"").str, "hi");
}

TEST(JsonParse, NestedObjectKeepsMemberOrder) {
  const JsonValue v =
      parse_or_die("{\"z\": 1, \"a\": {\"inner\": [1, 2, 3]}, \"m\": true}");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
  const JsonValue* inner = v.object[1].second.find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->array.size(), 3u);
  EXPECT_DOUBLE_EQ(inner->array[2].number, 3.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, QuoteRoundTripsAdversarialStrings) {
  const std::string adversarial[] = {
      "plain",
      "with \"quotes\" inside",
      "back\\slash and \\\" mix",
      "new\nline\tand\ttabs\r",
      "control \x01\x02\x1f chars",
      "UTF-8: caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x8e\xac",
      std::string("embedded\0nul", 12),
  };
  for (const std::string& s : adversarial) {
    const JsonValue v = parse_or_die(json_quote(s));
    EXPECT_EQ(v.type, JsonValue::Type::kString);
    EXPECT_EQ(v.str, s) << "round-trip mangled: " << json_quote(s);
  }
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse_or_die("\"\\u0041\"").str, "A");
  // BMP code point -> 3-byte UTF-8.
  EXPECT_EQ(parse_or_die("\"\\u65e5\"").str, "\xe6\x97\xa5");
  // Surrogate pair -> astral plane (U+1F3AC).
  EXPECT_EQ(parse_or_die("\"\\ud83c\\udfac\"").str, "\xf0\x9f\x8e\xac");
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* bad[] = {
      "",
      "{",
      "[1, 2",
      "{\"a\": }",
      "{\"a\": 1,}",
      "\"unterminated",
      "\"lone \\ud800 surrogate\"",
      "\"bad \\q escape\"",
      "12 34",          // trailing content
      "{\"a\": 1} x",   // trailing content
      "nulL",
      "--5",
  };
  for (const char* text : bad) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(json_parse(text, &v, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(JsonParse, ErrorCarriesByteOffset) {
  JsonValue v;
  std::string error;
  ASSERT_FALSE(json_parse("{\"a\": 1, \"b\": }", &v, &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(JsonParse, DepthLimitStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse(deep, &v, &error));
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  // And parses back as a JSON null, keeping artifacts loadable.
  EXPECT_EQ(parse_or_die(json_number(
                             std::numeric_limits<double>::infinity()))
                .type,
            JsonValue::Type::kNull);
}

TEST(JsonNumber, RoundTripsDoubles) {
  for (double d : {0.0, -1.5, 1e-9, 123456789.123456789, 2e300}) {
    const JsonValue v = parse_or_die(json_number(d));
    EXPECT_DOUBLE_EQ(v.number, d);
  }
}

TEST(JsonNumber, SubnormalsFormatWithoutThrowing) {
  // strtod reports ERANGE on underflow, so a %.12g token that reads back
  // as a subnormal used to throw out of std::stod. Each of these must
  // format, and the token must read back as exactly the value.
  const double min_normal = std::numeric_limits<double>::min();
  for (double d : {1e-310, 5e-324, -5e-324, 2.5e-320, min_normal,
                   std::nextafter(min_normal, 0.0),
                   std::numeric_limits<double>::denorm_min()}) {
    std::string token;
    ASSERT_NO_THROW(token = json_number(d)) << d;
    const JsonValue v = parse_or_die(token);
    EXPECT_EQ(v.number, d) << token;
  }
  EXPECT_EQ(json_number(5e-324), "4.94065645841e-324");
}

// The formula json_number(double) replaced, kept inline as the reference:
// %.12g if strtod reads it back exactly, else %.17g.
std::string reference_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  const std::string full = buf;
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return std::stod(buf) == v ? std::string(buf) : full;
}

double from_bits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

TEST(JsonNumber, MatchesPrintfReferenceOnSeededDoubles) {
  std::mt19937_64 rng(20240601);
  std::uniform_real_distribution<double> unit(1.0, 2.0);
  constexpr int kSamples = 1 << 20;
  int compared = 0;
  int skipped = 0;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t r = rng();
    double v = 0;
    switch (i % 8) {
      case 0:  // any bit pattern: NaN, inf, every exponent
        v = from_bits(r);
        break;
      case 1:  // exact integers up to 2^53
        v = static_cast<double>(static_cast<int64_t>(r >> 10) -
                                (int64_t{1} << 53));
        break;
      case 2:  // small integers and signed zeros
        v = static_cast<double>(static_cast<int64_t>(r % 2'000'001) -
                                1'000'000);
        if (r % 97 == 0) v = (r & 1) ? -0.0 : 0.0;
        break;
      case 3:  // short decimals, which %.12g round-trips
        v = static_cast<double>(static_cast<int64_t>(r % 20'000'001) -
                                10'000'000) /
            std::pow(10.0, static_cast<double>(r % 13));
        break;
      case 4:  // huge exponents
        v = std::ldexp(unit(rng), 900 + static_cast<int>(r % 124));
        break;
      case 5:  // tiny normal exponents
        v = std::ldexp(unit(rng), -1022 + static_cast<int>(r % 123));
        break;
      case 6:  // trace-style values: nanoseconds scaled to microseconds
        v = static_cast<double>(r % 10'000'000'000'000) * 1e-3;
        break;
      default:  // one ulp off a short decimal: needs all 17 digits
        v = std::nextafter(static_cast<double>(r % 100'000) / 1000.0,
                           (r & 1) ? 1e300 : -1e300);
        break;
    }
    if (std::fpclassify(v) == FP_SUBNORMAL) {
      ++skipped;
      continue;
    }
    std::string want;
    try {
      want = reference_json_number(v);
    } catch (const std::out_of_range&) {
      // The reference's own defect: a %.12g token just below the smallest
      // normal double reads back as a subnormal and strtod flags ERANGE.
      EXPECT_LT(std::fabs(v), 2.3e-308) << v;
      ++skipped;
      continue;
    }
    ASSERT_EQ(json_number(v), want) << std::hexfloat << v;
    ++compared;
  }
  EXPECT_GE(compared, 1'000'000);
  EXPECT_LT(skipped, kSamples / 100);
}

}  // namespace
}  // namespace qa
