#include "rtv/base/json.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

namespace rtv::json {

void escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
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
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string_view context)
      : text_(text), context_(context) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string(context_) + ", offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      // Bound the recursion so hostile nesting fails instead of
      // overflowing the stack; a throw unwinds every level at once.
      if (++depth_ > kMaxDepth)
        fail("containers nested deeper than " + std::to_string(kMaxDepth));
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::kString;
      v.string = parse_string();
      return v;
    }
    Value v;
    if (consume_literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Value::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
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
          // The writers only emit \u00XX for control characters; decode
          // the Latin-1 range as UTF-8 and reject the rest.
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

  Value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    Value v;
    v.kind = Value::Kind::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return v;
  }

  const std::string& text_;
  /// Far above any document the writers emit (they nest a handful deep).
  static constexpr std::size_t kMaxDepth = 512;

  std::string_view context_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(const std::string& text, std::string_view context) {
  return Parser(text, context).parse();
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

void check_schema(const Value& root, std::string_view name, int max_version,
                  std::string_view context) {
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(std::string(context) + ": " + what);
  };
  if (root.kind != Value::Kind::kObject) fail("root is not an object");
  if (require(root, "schema", Value::Kind::kString, "schema tag", context)
          .string != name)
    fail("wrong schema tag");
  const int version = static_cast<int>(
      require(root, "schema_version", Value::Kind::kNumber, "schema version",
              context)
          .number);
  if (version > max_version)
    fail("schema version " + std::to_string(version) +
         " is newer than this library supports (max " +
         std::to_string(max_version) + ")");
  if (version < 1) fail("invalid schema version " + std::to_string(version));
}

}  // namespace rtv::json
