#include "src/util/json.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace karma::util::json {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::value(std::int64_t v) {
  comma();
  // to_chars emits the same minimal-decimal bytes snprintf("%PRId64")
  // would, an order of magnitude faster — integers dominate a serialized
  // model description (every layer is mostly shape/channel counts), and
  // request serialization sits on the karma-pland client's hit path.
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, r.ptr);
}

void Writer::value(double d) {
  comma();
  if (std::isnan(d))
    throw std::invalid_argument("json::Writer: NaN is not representable");
  if (std::isinf(d)) {
    // JSON has no infinity literal; an overflowing decimal parses back to
    // the same +/-inf via strtod, keeping the round-trip byte-stable.
    out_ += d > 0 ? "1e999" : "-1e999";
    return;
  }
  // %.17g round-trips every finite IEEE-754 double exactly.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out_ += buf;
}

void Writer::string(std::string_view s) {
  // Clean runs append in bulk; the per-character path only ever runs for
  // the rare byte that actually needs escaping. Emitted bytes are
  // identical to a naive per-character walk.
  out_ += '"';
  std::size_t flushed = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
      continue;
    out_.append(s.data() + flushed, i - flushed);
    flushed = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      }
    }
  }
  out_.append(s.data() + flushed, s.size() - flushed);
  out_ += '"';
}

// ---------------------------------------------------------------------------
// Value accessors
// ---------------------------------------------------------------------------

const Value& Value::at(const std::string& k) const {
  const auto it = object.find(k);
  if (it == object.end())
    throw std::runtime_error("missing key '" + k + "'");
  return it->second;
}

std::int64_t Value::as_int() const {
  if (type != Type::kNumber || !integral)
    throw std::runtime_error("expected integer");
  return integer;
}

double Value::as_double() const {
  if (type != Type::kNumber) throw std::runtime_error("expected number");
  return integral ? static_cast<double>(integer) : number;
}

const std::string& Value::as_string() const {
  if (type != Type::kString) throw std::runtime_error("expected string");
  return str;
}

bool Value::as_bool() const {
  if (type != Type::kBool) throw std::runtime_error("expected bool");
  return boolean;
}

int as_int32(const Value& v, const char* what) {
  const std::int64_t x = v.as_int();
  if (x < INT_MIN || x > INT_MAX)
    throw std::runtime_error(std::string(what) + " out of int range");
  return static_cast<int>(x);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size())
      throw std::runtime_error("trailing characters after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// `depth` = arrays/objects enclosing this value. The parser recurses
  /// once per level, so the bound is what keeps hostile input from
  /// overflowing the stack.
  Value parse_value(int depth) {
    const char c = peek();  // skips leading whitespace
    const std::size_t begin = pos_;
    if ((c == '{' || c == '[') && depth >= kMaxParseDepth)
      throw std::runtime_error("JSON nesting deeper than " +
                               std::to_string(kMaxParseDepth));
    Value v = [&] {
      switch (c) {
        case '{': return parse_object(depth + 1);
        case '[': return parse_array(depth + 1);
        case '"': return parse_string();
        case 't':
        case 'f': return parse_bool();
        case 'n': return parse_null();
        default: return parse_number();
      }
    }();
    v.begin = begin;
    v.end = pos_;
    return v;
  }

  Value parse_object(int depth) {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    if (consume('}')) return v;
    do {
      Value key = parse_string();
      expect(':');
      v.object.emplace(std::move(key.str), parse_value(depth));
    } while (consume(','));
    expect('}');
    return v;
  }

  Value parse_array(int depth) {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    if (consume(']')) return v;
    do {
      v.array.push_back(parse_value(depth));
    } while (consume(','));
    expect(']');
    return v;
  }

  Value parse_string() {
    expect('"');
    Value v;
    v.type = Value::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            const std::string hex(text_.substr(pos_, 4));
            for (const char h : hex)
              if (!std::isxdigit(static_cast<unsigned char>(h)))
                throw std::runtime_error("bad \\u digits");
            const unsigned long cp = std::strtoul(hex.c_str(), nullptr, 16);
            // The writer only emits \u for ASCII control characters;
            // anything wider would be silently truncated here, so reject.
            if (cp > 0x7F)
              throw std::runtime_error("non-ASCII \\u escape unsupported");
            pos_ += 4;
            c = static_cast<char>(cp);
            break;
          }
          default: throw std::runtime_error("bad escape");
        }
      }
      v.str += c;
    }
    expect('"');
    return v;
  }

  Value parse_bool() {
    Value v;
    v.type = Value::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  Value parse_null() {
    if (text_.compare(pos_, 4, "null") != 0)
      throw std::runtime_error("bad literal");
    pos_ += 4;
    return {};
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string tok(text_.substr(start, pos_ - start));
    if (tok.empty()) throw std::runtime_error("bad number");
    Value v;
    v.type = Value::Type::kNumber;
    v.integral = tok.find_first_of(".eE") == std::string::npos;
    char* end = nullptr;
    if (v.integral) {
      errno = 0;
      v.integer = std::strtoll(tok.c_str(), &end, 10);
      if (end != tok.c_str() + tok.size() || errno == ERANGE)
        throw std::runtime_error("bad number '" + tok + "'");
    }
    v.number = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size())
      throw std::runtime_error("bad number '" + tok + "'");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse(); }

// ---------------------------------------------------------------------------
// scan_member
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kNpos = std::string_view::npos;

std::size_t scan_ws(std::string_view t, std::size_t p) {
  while (p < t.size() && std::isspace(static_cast<unsigned char>(t[p]))) ++p;
  return p;
}

/// `p` at the opening quote; returns one past the closing quote.
std::size_t scan_string(std::string_view t, std::size_t p) {
  for (++p; p < t.size(); ++p) {
    if (t[p] == '\\') {
      ++p;  // whatever follows is escaped, including '"'
    } else if (t[p] == '"') {
      return p + 1;
    }
  }
  return kNpos;
}

/// `p` at the first byte of a value; returns one past its last byte.
std::size_t scan_value(std::string_view t, std::size_t p) {
  if (p >= t.size()) return kNpos;
  const char c = t[p];
  if (c == '"') return scan_string(t, p);
  if (c == '{' || c == '[') {
    int depth = 0;
    while (p < t.size()) {
      const char d = t[p];
      if (d == '"') {
        p = scan_string(t, p);
        if (p == kNpos) return kNpos;
        continue;
      }
      if (d == '{' || d == '[') {
        ++depth;
      } else if (d == '}' || d == ']') {
        if (--depth == 0) return p + 1;
      }
      ++p;
    }
    return kNpos;
  }
  // number / true / false / null: up to the next structural delimiter
  while (p < t.size() && t[p] != ',' && t[p] != '}' && t[p] != ']' &&
         !std::isspace(static_cast<unsigned char>(t[p])))
    ++p;
  return p;
}

}  // namespace

std::string_view scan_member(std::string_view text, std::string_view key) {
  std::size_t p = scan_ws(text, 0);
  if (p >= text.size() || text[p] != '{') return {};
  ++p;
  while (true) {
    p = scan_ws(text, p);
    if (p >= text.size() || text[p] != '"') return {};
    const std::size_t key_begin = p + 1;
    const std::size_t key_close = scan_string(text, p);
    if (key_close == kNpos) return {};
    // Compared against the RAW key bytes: a key that needs unescaping to
    // match simply misses, and the caller's full parse handles it.
    const std::string_view raw_key =
        text.substr(key_begin, key_close - 1 - key_begin);
    p = scan_ws(text, key_close);
    if (p >= text.size() || text[p] != ':') return {};
    p = scan_ws(text, p + 1);
    const std::size_t value_begin = p;
    const std::size_t value_end = scan_value(text, p);
    if (value_end == kNpos) return {};
    if (raw_key == key)
      return text.substr(value_begin, value_end - value_begin);
    p = scan_ws(text, value_end);
    if (p >= text.size() || text[p] != ',') return {};
    ++p;
  }
}

}  // namespace karma::util::json
