// Tests for the minimal JSON layer: parsing (values, nesting, escapes,
// strictness, numeric range), deterministic dumping with insertion-ordered
// objects, the double format (bit-exact round trip, byte-identical to the
// snprintf/strtod reference below), and the u64 string codec that carries
// full-range seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/random.h"

namespace {

namespace json = econcast::util::json;
using json::Value;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The number codec as it was written with snprintf/strtod, kept as the
// oracle the to_chars/from_chars codec must match byte for byte: integral
// doubles below 2^53 as integers, everything else the first of %.15g,
// %.16g, %.17g that strtod reads back bit for bit.
std::string reference_format(double d) {
  if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0) {  // 2^53
    if (d == 0.0 && std::signbit(d)) return "-0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[40];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (same_bits(std::strtod(buf, nullptr), d)) return buf;
  }
  return buf;
}

// Feeds doubles through format_double and parse, counting disagreements
// with the reference and keeping the first for the failure message.
struct Differential {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first;

  /// format_double must print the reference's bytes, and parse must read
  /// them back to `d`.
  void check(double d) {
    if (!std::isfinite(d)) return;
    ++checked;
    const std::string want = reference_format(d);
    const std::string got = json::format_double(d);
    if (got != want || !same_bits(json::parse(got).as_number(), d))
      record(d, "format_double " + got + ", reference " + want);
  }

  /// parse must read a longer spelling than the writer's (%.17e) to the
  /// bits strtod gives.
  void check_long_form(double d) {
    if (!std::isfinite(d)) return;
    char text[40];
    std::snprintf(text, sizeof(text), "%.17e", d);
    if (!same_bits(json::parse(text).as_number(), std::strtod(text, nullptr)))
      record(d, std::string("parse of ") + text);
  }

  void record(double d, const std::string& what) {
    if (mismatches++ > 0) return;
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof d);
    char bits[24];
    std::snprintf(bits, sizeof(bits), "%016llx",
                  static_cast<unsigned long long>(b));
    first = "bits " + std::string(bits) + ": " + what;
  }
};

double from_bits(std::uint64_t b) {
  double d = 0.0;
  std::memcpy(&d, &b, sizeof d);
  return d;
}

// The edge sets, positive only (the caller adds the negatives).
std::vector<double> edge_doubles() {
  std::vector<double> out;
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  // Subnormals: the smallest multiples of denorm_min, the largest ones,
  // and seeded random ones in between.
  for (int m = 1; m <= 5000; ++m) out.push_back(m * denorm_min);
  for (int m = 1; m <= 5000; ++m) out.push_back(min_normal - m * denorm_min);
  econcast::util::Xoshiro256 gen(20161013);
  for (int i = 0; i < 20000; ++i)
    out.push_back(from_bits(gen() & ((std::uint64_t{1} << 52) - 1)));
  // Zero, and integers around 2^53 (where the integer branch ends) and 2^63.
  out.push_back(0.0);
  for (const double base : {0x1p53, 0x1p63}) {
    double up = base;
    double down = base;
    for (int i = 0; i < 2000; ++i) {
      out.push_back(up);
      out.push_back(down);
      up = std::nextafter(up, INFINITY);
      down = std::nextafter(down, 0.0);
    }
  }
  // Every power of two with its neighbours: at a normal power of two the
  // rounding interval is lopsided, and 46 of them need 17 digits although
  // their shortest form has 16.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    out.push_back(p);
    out.push_back(std::nextafter(p, 0.0));
    out.push_back(std::nextafter(p, INFINITY));
  }
  // m * 10^e across the exponent range, as strtod reads the decimal.
  for (int e = -330; e <= 310; ++e)
    for (const int m : {1, 2, 3, 5, 7, 9, 12, 25, 99, 123456789}) {
      const std::string text = std::to_string(m) + "e" + std::to_string(e);
      out.push_back(std::strtod(text.c_str(), nullptr));
    }
  // %g switches between fixed and exponent style at decimal exponents -5/-4
  // and at the precision (15-17): both sides of each power of ten there,
  // and random 17-digit mantissas in those decades.
  for (const int e : {-6, -5, -4, -3, 13, 14, 15, 16, 17, 18}) {
    const double p = std::pow(10.0, e);
    double up = p;
    double down = p;
    for (int i = 0; i < 200; ++i) {
      out.push_back(up);
      out.push_back(down);
      up = std::nextafter(up, INFINITY);
      down = std::nextafter(down, 0.0);
    }
    for (int i = 0; i < 2000; ++i)
      out.push_back(p * (1.0 + 9.0 * static_cast<double>(gen() >> 11) *
                                   0x1p-53));
  }
  out.push_back(std::numeric_limits<double>::max());
  return out;
}

TEST(JsonNumbers, FormatAndParseMatchTheSnprintfStrtodReference) {
  Differential diff;
  for (const double d : edge_doubles()) {
    for (const double x : {d, -d}) {
      diff.check(x);
      diff.check_long_form(x);
    }
  }
  // Seeded random bit patterns cover the rest of the double line evenly
  // by exponent (non-finite patterns are skipped).
  econcast::util::Xoshiro256 gen(18);
  for (int i = 0; i < 800'000; ++i) diff.check(from_bits(gen()));
  EXPECT_GT(diff.checked, 800'000u);
  EXPECT_EQ(diff.mismatches, 0u) << diff.first;
}

TEST(JsonNumbers, ParserKeepsStrtodRangeBehaviour) {
  const auto num = [](const std::string& text) {
    return json::parse(text).as_number();
  };
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  // Underflow is a signed zero, not an error.
  EXPECT_TRUE(same_bits(num("1e-400"), 0.0));
  EXPECT_TRUE(same_bits(num("-1e-400"), -0.0));
  EXPECT_TRUE(std::signbit(num("-1e-400")));
  EXPECT_TRUE(same_bits(num("2e-324"), 0.0));
  EXPECT_TRUE(same_bits(num("0.0000001e-317"), 0.0));
  EXPECT_TRUE(same_bits(num("1e-99999999999999999999999"), 0.0));
  EXPECT_EQ(num("3e-324"), denorm_min);
  EXPECT_EQ(num("2.2250738585072011e-308"),
            std::strtod("2.2250738585072011e-308", nullptr));
  EXPECT_TRUE(same_bits(num("0e999999"), 0.0));
  EXPECT_TRUE(same_bits(num("-0.000e99999999999999999999"), -0.0));
  // Overflow is an error, whatever the exponent's sign.
  for (const std::string& huge :
       {std::string("1e400"), std::string("-1e400"),
        std::string("1.7976931348623159e308"),
        std::string("1e99999999999999999999"),
        "1" + std::string(400, '0') + "e-1"}) {
    SCOPED_TRACE(huge.substr(0, 30));
    EXPECT_THROW(json::parse(huge), json::Error);
  }
  EXPECT_EQ(num("1.7976931348623157e308"),
            std::numeric_limits<double>::max());
  // A 200,000-digit mantissa that sits just above the midpoint between two
  // doubles (2^53 + 1, then a far 1) must round up, as strtod does.
  const std::string long_mantissa =
      "9007199254740993." + std::string(199'983, '0') + "1";
  ASSERT_EQ(long_mantissa.size(), 200'001u);  // 200,000 digits and a '.'
  const double want = std::strtod(long_mantissa.c_str(), nullptr);
  EXPECT_EQ(want, 9007199254740994.0);
  EXPECT_TRUE(same_bits(num(long_mantissa), want));
}

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("false").as_bool(), false);
  EXPECT_EQ(json::parse("42").as_number(), 42.0);
  EXPECT_EQ(json::parse("-0.5e2").as_number(), -50.0);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(json::parse("  [1, 2]  ").as_array().size(), 2u);
  EXPECT_EQ(json::parse("{}").as_object().size(), 0u);
}

TEST(Json, ParsesNestedStructures) {
  const Value v = json::parse(
      R"({"a": [1, {"b": true}, "x"], "c": {"d": null}, "e": -3.25})");
  EXPECT_EQ(v.at("a").as_array()[1].at("b").as_bool(), true);
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.at("e").as_number(), -3.25);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), json::Error);
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(json::parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "tru", "01", "+1", "1.", ".5", "1e", "[1,]", "[1 2]", "{\"a\" 1}",
        "{\"a\":1,}", "\"unterminated", "\"bad\\escape\"", "nan", "[1] junk",
        "{\"a\": \"\\ud83d\"}", "\"\x01\""}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(json::parse(bad), json::Error);
  }
}

TEST(Json, AccessorsRejectWrongKind) {
  const Value v = json::parse("[1]");
  EXPECT_THROW(v.as_bool(), json::Error);
  EXPECT_THROW(v.as_number(), json::Error);
  EXPECT_THROW(v.as_string(), json::Error);
  EXPECT_THROW(v.as_object(), json::Error);
  EXPECT_NO_THROW(v.as_array());
}

TEST(Json, DumpIsCompactAndOrdered) {
  json::Object o;
  o.set("zebra", 1).set("alpha", json::Array{Value(true), Value(nullptr)});
  o.set("zebra", 2);  // replaces in place, keeps position
  EXPECT_EQ(json::dump(Value(o)), R"({"zebra":2,"alpha":[true,null]})");
}

TEST(Json, PrettyDumpRoundTrips) {
  const char* text =
      R"({"a": [1, 2, {"b": "x"}], "c": true, "d": {"e": [], "f": {}}})";
  const Value v = json::parse(text);
  const std::string pretty = json::dump(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(json::parse(pretty), v);
  EXPECT_EQ(json::parse(json::dump(v)), v);
}

TEST(Json, StringEscapeRoundTrips) {
  const std::string nasty = "quote\" back\\ slash/ \n\t\r\b\f ctrl\x01 utf\xc3\xa9";
  EXPECT_EQ(json::parse(json::dump(Value(nasty))).as_string(), nasty);
}

TEST(Json, DoubleFormatRoundTrips) {
  for (const double d :
       {0.1, 1.0 / 3.0, 2.5, 1e-300, 1e300, 6.02214076e23, -0.0, 0.0,
        123456789012345678.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(), 0.026273195549999997}) {
    const std::string s = json::format_double(d);
    const double back = json::parse(s).as_number();
    EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0)
        << s << " does not round-trip";
  }
  EXPECT_EQ(json::format_double(42.0), "42");       // integral: no exponent
  EXPECT_EQ(json::format_double(0.5), "0.5");       // short when it can be
  EXPECT_EQ(json::format_double(-0.0), "-0");       // sign preserved
  // Not the shortest form: %.*g at max(15, k) digits, k the shortest
  // form's digit count ("5e-324" here).
  EXPECT_EQ(json::format_double(std::numeric_limits<double>::denorm_min()),
            "4.94065645841247e-324");
  EXPECT_EQ(json::format_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_THROW(json::format_double(NAN), json::Error);
  EXPECT_THROW(json::format_double(INFINITY), json::Error);
}

TEST(Json, NumbersSurviveDumpParse) {
  json::Array a;
  a.emplace_back(0.1 + 0.2);  // classic non-representable sum
  a.emplace_back(1.0 / 7.0);
  a.emplace_back(4503599627370497.0);  // 2^52 + 1, integral path
  const Value back = json::parse(json::dump(Value(a)));
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = a[i].as_number();
    const double y = back.as_array()[i].as_number();
    EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0);
  }
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  // JSON cannot carry NaN/Inf; the writer encodes them as null so a
  // streaming checkpoint write never aborts mid-sweep, and the reader side
  // (as_number_or_nan) brings them back as NaN.
  EXPECT_EQ(json::dump(Value(NAN)), "null");
  EXPECT_EQ(json::dump(Value(INFINITY)), "null");
  EXPECT_EQ(json::dump(Value(-INFINITY)), "null");
  json::Object o;
  o.set("ok", 1.5).set("bad", NAN);
  EXPECT_EQ(json::dump(Value(o)), R"({"ok":1.5,"bad":null})");

  const Value back = json::parse(json::dump(Value(o)));
  EXPECT_TRUE(std::isnan(back.at("bad").as_number_or_nan()));
  EXPECT_EQ(back.at("ok").as_number_or_nan(), 1.5);
  EXPECT_THROW(back.at("bad").as_number(), json::Error);  // strict form
  EXPECT_THROW(json::parse("\"x\"").as_number_or_nan(), json::Error);
  // The round trip is byte-stable: null re-dumps as null.
  EXPECT_EQ(json::dump(back), R"({"ok":1.5,"bad":null})");
}

TEST(Json, U64StringCodec) {
  EXPECT_EQ(json::u64_to_string(0), "0");
  EXPECT_EQ(json::u64_from_string("0"), 0u);
  const std::uint64_t big = 18446744073709551615ULL;  // 2^64 - 1
  EXPECT_EQ(json::u64_from_string(json::u64_to_string(big)), big);
  EXPECT_THROW(json::u64_from_string(""), json::Error);
  EXPECT_THROW(json::u64_from_string("-1"), json::Error);
  EXPECT_THROW(json::u64_from_string("12x"), json::Error);
  EXPECT_THROW(json::u64_from_string("18446744073709551616"), json::Error);
}

TEST(Json, DeepNestingIsBounded) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  EXPECT_THROW(json::parse(deep), json::Error);
}

}  // namespace
