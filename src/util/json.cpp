#include "util/json.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

namespace econcast::util::json {

// ---------------------------------------------------------------- Object --

Object& Object::set(std::string key, Value value) {
  for (Member& m : members_) {
    if (m.first == key) {
      m.second = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Value* Object::find(const std::string& key) const noexcept {
  for (const Member& m : members_)
    if (m.first == key) return &m.second;
  return nullptr;
}

const Value& Object::at(const std::string& key) const {
  const Value* v = find(key);
  if (!v) throw Error("json: missing key '" + key + "'");
  return *v;
}

bool operator==(const Object& a, const Object& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.members()[i] != b.members()[i]) return false;
  return true;
}

// ----------------------------------------------------------------- Value --

namespace {
const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* wanted, Value::Kind got) {
  throw Error(std::string("json: expected ") + wanted + ", got " +
              kind_name(got));
}
}  // namespace

bool Value::as_bool() const {
  if (const auto* b = std::get_if<bool>(&data_)) return *b;
  kind_error("bool", kind());
}

double Value::as_number() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  kind_error("number", kind());
}

double Value::as_number_or_nan() const {
  if (is_null()) return std::numeric_limits<double>::quiet_NaN();
  return as_number();
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  kind_error("string", kind());
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&data_)) return *a;
  kind_error("array", kind());
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&data_)) return *o;
  kind_error("object", kind());
}

bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

// ---------------------------------------------------------------- parser --

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& message) const {
    throw Error("json parse error at offset " + std::to_string(pos_) + ": " +
                message);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return Value(parse_number());
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = peek();
      ++pos_;
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
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const std::uint32_t lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid surrogate pair");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              fail("unpaired surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    // Validate the JSON grammar before converting (from_chars accepts
    // "inf", "nan" and a leading zero run, none of which are JSON).
    auto digits = [&] {
      std::size_t count = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++count;
      }
      return count;
    };
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (digits() == 0) {
      fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("digits required in exponent");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (end != token.data() + token.size()) fail("invalid number");
    // from_chars reports overflow and underflow alike and leaves `v` as it
    // was. Overflow is an error; underflow reads as the signed zero that
    // strtod rounds it to.
    if (ec == std::errc::result_out_of_range) {
      if (!below_one(token)) fail("number out of range");
      v = token[0] == '-' ? -0.0 : 0.0;
    }
    return v;
  }

  /// Whether a grammar-checked number token has magnitude below 1, i.e. the
  /// decimal exponent of its first nonzero digit is negative.
  static bool below_one(std::string_view token) {
    long long digits = 0;       // mantissa digits seen
    long long point = -1;       // mantissa digits before the '.', if any
    long long first = -1;       // index of the first nonzero digit
    std::size_t i = token[0] == '-' ? 1 : 0;
    for (; i < token.size() && token[i] != 'e' && token[i] != 'E'; ++i) {
      if (token[i] == '.') {
        point = digits;
      } else {
        if (first < 0 && token[i] != '0') first = digits;
        ++digits;
      }
    }
    if (first < 0) return true;  // zero
    if (point < 0) point = digits;
    long long exponent = 0;  // saturates: only its sign and size matter
    bool negative = false;
    if (i < token.size()) {
      ++i;
      if (token[i] == '+' || token[i] == '-') negative = token[i++] == '-';
      for (; i < token.size(); ++i)
        exponent = std::min(exponent * 10 + (token[i] - '0'), 1LL << 50);
    }
    return point - 1 - first + (negative ? -exponent : exponent) < 0;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

// ---------------------------------------------------------------- writer --

namespace {

/// Writes format_double's text for a finite `d` into `buf`; returns its end.
char* format_finite(double d, char (&buf)[40]) {
  // Integral doubles inside the exactly-representable range print as plain
  // integers (stable, exponent-free — these are counts and axis values).
  if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0) {  // 2^53
    if (d == 0.0 && std::signbit(d)) {
      std::memcpy(buf, "-0", 2);
      return buf + 2;
    }
    return std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d))
        .ptr;
  }
  // k = significant digits of the shortest round-trip form; the output is
  // %.*g (chars_format::general with a precision) at max(15, k).
  auto res = std::to_chars(buf, buf + sizeof(buf), d,
                           std::chars_format::scientific);
  int k = 0;
  for (const char* p = buf; p != res.ptr && *p != 'e'; ++p)
    k += *p >= '0' && *p <= '9';
  int precision = std::max(15, k);
  res = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                      precision);
  // Nearest-p-digit rounding round-trips for every p >= k, except at a
  // normal power of two: its lower neighbour is half as far as its upper
  // one, so the nearest 16-digit decimal can fall below the rounding
  // interval. Step up a digit there until it reads back (17 always does).
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(d));
  if ((bits & ((std::uint64_t{1} << 52) - 1)) == 0) {
    while (precision < 17) {
      double back = 0.0;
      std::from_chars(buf, res.ptr, back);
      if (back == d) break;
      res = std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, ++precision);
    }
  }
  return res.ptr;
}

}  // namespace

std::string format_double(double d) {
  if (!std::isfinite(d)) throw Error("json: NaN/Inf is not representable");
  char buf[40];
  return std::string(buf, format_finite(d, buf));
}

std::string u64_to_string(std::uint64_t v) { return std::to_string(v); }

std::uint64_t u64_from_string(const std::string& s) {
  if (s.empty() || s[0] == '-' || s[0] == '+')
    throw Error("json: invalid u64 '" + s + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE)
    throw Error("json: invalid u64 '" + s + "'");
  return static_cast<std::uint64_t>(v);
}

std::size_t size_from_json(const Value& value, const char* what,
                           double max) {
  const double v = value.as_number();
  if (!(v >= 0.0 && v <= max) || v != std::floor(v))
    throw Error(std::string(what) + " must be an integer in [0, " +
                format_double(max) + "], got " +
                (std::isfinite(v) ? format_double(v) : "a non-finite number"));
  return static_cast<std::size_t>(v);
}

namespace {

void dump_string(const std::string& s, std::string& out) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through
        }
    }
  }
  out.push_back('"');
}

void dump_value(const Value& v, int indent, int depth, std::string& out) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d),
               ' ');
  };
  switch (v.kind()) {
    case Value::Kind::kNull: out += "null"; break;
    case Value::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::kNumber: {
      // JSON has no NaN/Inf; encode them as null (decoders use
      // as_number_or_nan) instead of aborting a mid-sweep checkpoint write.
      const double d = v.as_number();
      if (std::isfinite(d)) {
        char buf[40];
        out.append(buf, format_finite(d, buf));
      } else {
        out += "null";
      }
      break;
    }
    case Value::Kind::kString: dump_string(v.as_string(), out); break;
    case Value::Kind::kArray: {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out.push_back(',');
        newline_pad(depth + 1);
        dump_value(a[i], indent, depth + 1, out);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      const Object& o = v.as_object();
      if (o.size() == 0) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const Object::Member& m : o.members()) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        dump_string(m.first, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_value(m.second, indent, depth + 1, out);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& value, int indent) {
  std::string out;
  dump_value(value, indent, 0, out);
  return out;
}

}  // namespace econcast::util::json
