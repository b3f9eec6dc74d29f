#include "rtv/base/json.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace rtv::json {

void escape_into(std::string& out, std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end) {
    // Append the run of bytes that need no escape in one go.
    const char* run = p;
    while (p != end && static_cast<unsigned char>(*p) >= 0x20 && *p != '"' &&
           *p != '\\')
      ++p;
    out.append(run, p);
    if (p == end) return;
    const char c = *p++;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
  }
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  escape_into(out, s);
  out += '"';
}

void append_double(std::string& out, double v) {
  // "-1.2345678901234567e-308" is the longest spelling: 24 bytes.
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_int(std::string& out, long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_uint(std::string& out, unsigned long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

namespace {

/// Reads one document into the caller's Value: every container element is
/// constructed in its container and filled there, so no Value is built
/// elsewhere and then returned or copied (vector growth still moves them).
class Parser {
 public:
  Parser(std::string_view text, std::string_view context)
      : begin_(text.data()),
        p_(text.data()),
        end_(text.data() + text.size()),
        context_(context) {}

  void parse(Value& out) {
    parse_value(out);
    skip_ws();
    if (p_ != end_) fail("trailing characters after document");
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string(context_) + ", offset " +
                             std::to_string(p_ - begin_) + ": " + what);
  }

  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' || *p_ == '\t'))
      ++p_;
  }

  char peek() {
    skip_ws();
    if (p_ == end_) fail("unexpected end of document");
    return *p_;
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  bool consume_literal(std::string_view lit) {
    if (static_cast<std::size_t>(end_ - p_) < lit.size() ||
        std::memcmp(p_, lit.data(), lit.size()) != 0)
      return false;
    p_ += lit.size();
    return true;
  }

  void parse_value(Value& v) {
    switch (peek()) {
      case '{':
      case '[':
        // Bound the recursion so hostile nesting fails instead of
        // overflowing the stack; a throw unwinds every level at once.
        if (++depth_ > kMaxDepth)
          fail("containers nested deeper than " + std::to_string(kMaxDepth));
        if (*p_ == '{')
          parse_object(v);
        else
          parse_array(v);
        --depth_;
        return;
      case '"':
        v.kind = Value::Kind::kString;
        parse_string(v.string);
        return;
      case 't':
        if (!consume_literal("true")) break;
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        return;
      case 'f':
        if (!consume_literal("false")) break;
        v.kind = Value::Kind::kBool;
        return;
      case 'n':
        if (!consume_literal("null")) break;
        return;
      default:
        break;
    }
    parse_number(v);
  }

  void parse_object(Value& v) {
    ++p_;  // '{'
    v.kind = Value::Kind::kObject;
    if (peek() == '}') {
      ++p_;
      return;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      auto& member = v.object.emplace_back();
      parse_string(member.first);
      expect(':');
      parse_value(member.second);
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(Value& v) {
    ++p_;  // '['
    v.kind = Value::Kind::kArray;
    if (peek() == ']') {
      ++p_;
      return;
    }
    for (;;) {
      parse_value(v.array.emplace_back());
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect(']');
      return;
    }
  }

  /// Appends the string whose opening quote is at p_ to `out`.
  void parse_string(std::string& out) {
    ++p_;  // '"'
    for (;;) {
      // Copy up to the next quote or backslash in one go.
      const char* run = p_;
      while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
      out.append(run, p_);
      if (p_ == end_) break;
      if (*p_++ == '"') return;
      if (p_ == end_) break;
      const char esc = *p_++;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (end_ - p_ < 4) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // The writers only emit \u00XX for control characters.  Decode
          // any BMP code point as UTF-8, except the surrogates, which have
          // no UTF-8 encoding (pairs included: no writer emits them).
          if (code >= 0xd800 && code <= 0xdfff)
            fail("surrogate code point in \\u escape");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  /// The token is every byte that can occur in a number; from_chars must
  /// read all of it, so "1-2" or "1.5.5" fail instead of parsing a prefix.
  void parse_number(Value& v) {
    const char* start = p_;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '-' ||
                          *p_ == '+' || *p_ == '.' || *p_ == 'e' ||
                          *p_ == 'E'))
      ++p_;
    if (p_ == start) fail("expected a value");
    v.kind = Value::Kind::kNumber;
    const auto r = std::from_chars(start, p_, v.number);
    if (r.ec != std::errc() || r.ptr != p_) fail("malformed number");
  }

  /// Far above any document the writers emit (they nest a handful deep).
  static constexpr std::size_t kMaxDepth = 512;

  const char* begin_;
  const char* p_;
  const char* end_;
  std::string_view context_;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(std::string_view text, std::string_view context) {
  Value v;
  Parser(text, context).parse(v);
  return v;
}

const Value& require(const Value& obj, std::string_view key, Value::Kind kind,
                     const char* what, std::string_view context) {
  const Value* v = obj.find(key);
  if (!v || v->kind != kind)
    throw std::runtime_error(std::string(context) +
                             ": missing or mistyped field '" +
                             std::string(key) + "' (" + what + ")");
  return *v;
}

std::int64_t whole_number(const Value& v, std::string_view field,
                          std::string_view context, std::int64_t lo,
                          std::int64_t hi) {
  // [-2^63, 2^63) is exactly the doubles that convert to int64_t.
  const double x = v.number;
  if (v.kind == Value::Kind::kNumber && x >= -0x1p63 && x < 0x1p63 &&
      std::trunc(x) == x) {
    const auto n = static_cast<std::int64_t>(x);
    if (n >= lo && n <= hi) return n;
  }
  std::string msg = std::string(context) + ": field '";
  msg.append(field).append("' must be a whole number in [");
  append_int(msg, lo);
  msg += ", ";
  append_int(msg, hi);
  msg += "]";
  if (v.kind == Value::Kind::kNumber) {
    char buf[32];  // shortest round-trip spelling, e.g. "0.9" or "1e+300"
    msg.append(", got ").append(buf, std::to_chars(buf, buf + 32, x).ptr);
  }
  throw std::runtime_error(msg);
}

std::int64_t require_whole(const Value& obj, std::string_view key,
                           const char* what, std::string_view context,
                           std::int64_t lo, std::int64_t hi) {
  return whole_number(require(obj, key, Value::Kind::kNumber, what, context),
                      key, context, lo, hi);
}

void check_schema(const Value& root, std::string_view name, int max_version,
                  std::string_view context) {
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(std::string(context) + ": " + what);
  };
  if (root.kind != Value::Kind::kObject) fail("root is not an object");
  if (require(root, "schema", Value::Kind::kString, "schema tag", context)
          .string != name)
    fail("wrong schema tag");
  const auto version = static_cast<int>(require_whole(
      root, "schema_version", "schema version", context,
      std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
  if (version > max_version)
    fail("schema version " + std::to_string(version) +
         " is newer than this library supports (max " +
         std::to_string(max_version) + ")");
  if (version < 1) fail("invalid schema version " + std::to_string(version));
}

}  // namespace rtv::json
