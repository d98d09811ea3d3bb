// Minimal dependency-free JSON reader/writer for the sweep-manifest and
// checkpoint pipeline. Scope is deliberately small: the six JSON kinds, an
// insertion-ordered object (so dumps are deterministic and diffs are
// stable), a strict recursive-descent parser, and a writer whose number
// formatting round-trips — parse(dump(v)) reproduces every double bit for
// bit, which is what makes resumed sweep results byte-identical to
// uninterrupted ones. Numbers convert with std::to_chars/std::from_chars;
// a double prints as printf's "%.*g" at max(15, k) digits, where k is the
// digit count of its shortest round-trip form (see format_double).
//
// 64-bit integers (seeds, packet counts) do not survive the double-only JSON
// number model above 2^53, so seeds are carried as decimal strings via
// u64_to_string / u64_from_string.
#ifndef ECONCAST_UTIL_JSON_H
#define ECONCAST_UTIL_JSON_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace econcast::util::json {

/// Parse or access error; `what()` includes byte offsets for parse errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message) : std::runtime_error(message) {}
};

class Value;
using Array = std::vector<Value>;

/// A JSON object that preserves insertion order (std::map would silently
/// reorder keys between write and re-write). Lookup is a linear scan —
/// manifests have tens of keys, not thousands.
class Object {
 public:
  using Member = std::pair<std::string, Value>;

  /// Sets `key` (replacing an existing member in place, else appending).
  /// Returns *this for builder-style chaining.
  Object& set(std::string key, Value value);

  const Value* find(const std::string& key) const noexcept;
  /// Throws Error when `key` is absent.
  const Value& at(const std::string& key) const;
  bool contains(const std::string& key) const noexcept {
    return find(key) != nullptr;
  }

  const std::vector<Member>& members() const noexcept { return members_; }
  std::size_t size() const noexcept { return members_.size(); }

 private:
  std::vector<Member> members_;
};

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() noexcept : data_(nullptr) {}
  Value(std::nullptr_t) noexcept : data_(nullptr) {}
  Value(bool b) noexcept : data_(b) {}
  Value(double d) noexcept : data_(d) {}
  Value(int i) noexcept : data_(static_cast<double>(i)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Kind kind() const noexcept { return static_cast<Kind>(data_.index()); }
  bool is_null() const noexcept { return kind() == Kind::kNull; }
  bool is_bool() const noexcept { return kind() == Kind::kBool; }
  bool is_number() const noexcept { return kind() == Kind::kNumber; }
  bool is_string() const noexcept { return kind() == Kind::kString; }
  bool is_array() const noexcept { return kind() == Kind::kArray; }
  bool is_object() const noexcept { return kind() == Kind::kObject; }

  // Checked accessors; Error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  /// as_number(), except null decodes to NaN — the reader side of the
  /// writer's non-finite-numbers-as-null encoding (see dump).
  double as_number_or_nan() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  // Object conveniences (Error when not an object / key absent).
  const Value& at(const std::string& key) const { return as_object().at(key); }
  const Value* find(const std::string& key) const {
    return as_object().find(key);
  }

  friend bool operator==(const Value& a, const Value& b);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

bool operator==(const Object& a, const Object& b);

/// Strict JSON parse of the whole input (trailing non-whitespace is an
/// error). Throws Error with the byte offset of the problem.
Value parse(std::string_view text);

/// Serializes. indent < 0 gives the compact single-line form used for JSONL
/// checkpoint records; indent >= 0 pretty-prints with that many spaces per
/// level. Non-finite numbers (which JSON cannot represent) are written as
/// null — a simulation result with a NaN metric must not abort a streaming
/// checkpoint write mid-sweep; decode such fields with as_number_or_nan.
std::string dump(const Value& value, int indent = -1);

/// Decimal string that parses back to exactly `d`: "%.*g" at max(15, k)
/// digits, k being the digit count of d's shortest round-trip form, or 17
/// at the powers of two where 16 would not round-trip — the first of
/// %.15g, %.16g, %.17g that reads back bit for bit. This is not the
/// shortest form: denorm_min prints as 4.94065645841247e-324, not 5e-324,
/// and 0.1 as 0.1 only because %.15g strips trailing zeros. Integral values
/// within 2^53 print without exponent or decimal point. Deterministic for a
/// given double. Throws Error on NaN/Inf — only dump applies the null
/// encoding.
std::string format_double(double d);

/// Decimal-string codec for full-range 64-bit values (seeds).
std::string u64_to_string(std::uint64_t v);
std::uint64_t u64_from_string(const std::string& s);

/// `value` as a count, index or timestamp: throws Error naming `what`
/// unless it is an integral number in [0, max]. A bare double-to-integer
/// cast is undefined behaviour for negatives and for values past the
/// target type, so every such number read from a file comes through here.
/// The default cap, 2^53, is where doubles stop holding every integer.
std::size_t size_from_json(const Value& value, const char* what,
                           double max = 9007199254740992.0);

}  // namespace econcast::util::json

#endif  // ECONCAST_UTIL_JSON_H
