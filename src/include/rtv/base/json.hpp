// Minimal JSON support shared by the machine-readable report writers and
// parsers (suite reports, fuzz campaign reports, generator configs).
//
// The writer side is a handful of append helpers that write straight into
// the caller's buffer; the reader side is a strict recursive-descent parser
// for exactly the grammar the writers emit (objects, arrays, strings with
// escapes, numbers, booleans, null), so a corrupted document fails loudly
// instead of round-tripping garbage.  Numbers go through std::to_chars and
// std::from_chars in both directions, so neither side reads the C locale.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rtv::json {

// ---- emission --------------------------------------------------------------

/// Append `s` with JSON escaping (no surrounding quotes).
void escape_into(std::string& out, std::string_view s);

/// Append `s` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view s);

/// Append a double with 17 significant digits, byte for byte what
/// printf's "%.17g" writes in the C locale: every finite double
/// round-trips exactly.
void append_double(std::string& out, double v);

/// Append an integer in decimal (what std::to_string writes).
void append_int(std::string& out, long long v);
void append_uint(std::string& out, unsigned long long v);

// ---- parsing ---------------------------------------------------------------

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// First member with this key, or null (objects only).
  const Value* find(std::string_view key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parse one JSON document.  `context` prefixes every error message
/// (e.g. "suite report JSON"); throws std::runtime_error on malformed
/// input, trailing characters, or containers nested more than 512 deep.
/// Whitespace is the four JSON bytes (space, tab, CR, LF); a number token
/// must be a whole number as std::from_chars reads it; \u escapes decode
/// the BMP to UTF-8 and reject the surrogate range U+D800-U+DFFF.
Value parse(std::string_view text, std::string_view context);

/// Fetch a required object member of the given kind; throws
/// std::runtime_error naming `context`, the key and `what` when the member
/// is missing or mistyped.
const Value& require(const Value& obj, std::string_view key, Value::Kind kind,
                     const char* what, std::string_view context);

/// `v` as a whole number in [lo, hi].  Every integer field read from a
/// document goes through here, since casting a double outside the target
/// type's range is undefined behaviour; throws std::runtime_error prefixed
/// with `context` and naming `field` when `v` is not a number, has a
/// fractional part or lies outside the range.
std::int64_t whole_number(
    const Value& v, std::string_view field, std::string_view context,
    std::int64_t lo = 0,
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());

/// require() of a number member, read through whole_number().
std::int64_t require_whole(
    const Value& obj, std::string_view key, const char* what,
    std::string_view context, std::int64_t lo = 0,
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());

/// Check a versioned document's envelope: `root` is an object whose
/// "schema" is `name` and whose "schema_version" is in [1, max_version].
/// Strict in both directions, so a document written by a newer library
/// fails loudly, naming both versions; throws std::runtime_error prefixed
/// with `context` otherwise.
void check_schema(const Value& root, std::string_view name, int max_version,
                  std::string_view context);

}  // namespace rtv::json
