#include "src/util/json.h"

#include <charconv>
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
// Reader
// ---------------------------------------------------------------------------

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_number_char(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
         c == '-';
}

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error(why);
}

}  // namespace

char Reader::peek_past_space() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  if (pos_ >= text_.size()) fail("unexpected end");
  return text_[pos_];
}

void Reader::expected(char c) { fail(std::string("expected '") + c + "'"); }

bool Reader::open(char c, char close) {
  if (peek() != c) expected(c);
  if (depth_ >= kMaxParseDepth)
    fail("JSON nesting deeper than " + std::to_string(kMaxParseDepth));
  ++pos_;
  ++depth_;
  if (peek() != close) return true;
  ++pos_;
  --depth_;
  return false;
}

std::string_view Reader::quoted(std::string* buffer) {
  if (peek() != '"') fail("expected string");
  const std::size_t begin = ++pos_;
  const char* const t = text_.data();  // a local: see delimit()
  std::size_t i = begin;
  while (i < text_.size() && t[i] != '"' && t[i] != '\\') ++i;
  pos_ = i;
  if (i < text_.size() && t[i] == '"')
    return text_.substr(begin, pos_++ - begin);
  // Escapes: decode from the first one on.
  if (buffer != nullptr) buffer->assign(text_.substr(begin, pos_ - begin));
  constexpr std::string_view kEscape = "\"\\/bfnrt", kMeaning = "\"\\/\b\f\n\r\t";
  while (pos_ < text_.size()) {
    char c = text_[pos_++];
    if (c == '"') return buffer != nullptr ? *buffer : std::string_view();
    if (c == '\\') {
      if (pos_ >= text_.size()) fail("bad escape");
      const char e = text_[pos_++];
      if (kEscape.find(e) != std::string_view::npos) {
        c = kMeaning[kEscape.find(e)];
      } else if (e != 'u') {
        fail("bad escape");
      } else {
        if (pos_ + 4 > text_.size()) fail("bad \\u");
        unsigned cp = 0;
        const char* hex = text_.data() + pos_;
        if (std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4)
          fail("bad \\u digits");
        // The writer only emits \u for ASCII control characters; anything
        // wider would be silently truncated here, so reject.
        if (cp > 0x7F) fail("non-ASCII \\u escape unsupported");
        pos_ += 4;
        c = static_cast<char>(cp);
      }
    }
    if (buffer != nullptr) *buffer += c;
  }
  fail("unexpected end");
}

Reader::Number Reader::lex_number(const char* type) {
  const char c = peek();
  if (c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' || c == 'n')
    fail(type);
  const std::size_t start = pos_;
  // Fast path: up to 18 digits cannot overflow an int64.
  const bool negative = c == '-';
  std::size_t p = start + (negative ? 1 : 0);
  std::int64_t v = 0;
  while (p < text_.size() && p - start < 18 && is_digit(text_[p]))
    v = v * 10 + (text_[p++] - '0');
  if (p > start + (negative ? 1 : 0) &&
      (p == text_.size() || !is_number_char(text_[p]))) {
    pos_ = p;
    v = negative ? -v : v;
    return {text_.substr(start, p - start), true, v,
            negative && v == 0 ? -0.0 : static_cast<double>(v)};
  }
  // Any other token as strtod reads it: from_chars, less a leading '+',
  // and strtod itself for what from_chars calls out of range.
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  const std::string_view token = text_.substr(start, pos_ - start);
  if (token.empty()) fail("bad number");
  const auto bad = [&] { fail("bad number '" + std::string(token) + "'"); };
  std::string_view digits = token;
  if (digits.front() == '+') {
    digits.remove_prefix(1);
    if (!digits.empty() && (digits.front() == '+' || digits.front() == '-'))
      bad();  // from_chars would read "+-1" as "-1"; strtod does not
  }
  const char* end = digits.data() + digits.size();
  Number n{token, token.find_first_of(".eE") == std::string_view::npos, 0,
           0.0};
  const auto r = n.integral ? std::from_chars(digits.data(), end, n.integer)
                            : std::from_chars(digits.data(), end, n.value);
  const bool saturates =
      !n.integral && r.ec == std::errc::result_out_of_range;
  if (r.ptr != end || (r.ec != std::errc() && !saturates)) bad();
  if (saturates) n.value = std::strtod(std::string(token).c_str(), nullptr);
  if (n.integral)
    n.value = n.integer == 0 && token.front() == '-'
                  ? -0.0
                  : static_cast<double>(n.integer);
  return n;
}

std::int64_t Reader::int64() {
  const Number n = lex_number("expected integer");
  if (!n.integral) fail("expected integer");
  return n.integer;
}

int Reader::int32(const char* what) {
  const std::int64_t x = int64();
  if (x < INT_MIN || x > INT_MAX)
    fail(std::string(what) + " out of int range");
  return static_cast<int>(x);
}

double Reader::number() { return lex_number("expected number").value; }

bool Reader::boolean() {
  const char c = peek();
  for (const std::string_view word : {"true", "false"}) {
    if (text_.substr(pos_, word.size()) != word) continue;
    pos_ += word.size();
    return word.front() == 't';
  }
  fail(c == 't' || c == 'f' ? "bad literal" : "expected bool");
}

bool Reader::null() {
  if (peek() != 'n') return false;
  if (text_.substr(pos_, 4) != "null") fail("bad literal");
  pos_ += 4;
  return true;
}

std::string_view Reader::skip() {
  const char c = peek();
  const std::size_t begin = pos_;
  if (c == '{') {
    if (begin_object()) do {
        quoted(nullptr);
        if (peek() != ':') expected(':');
        ++pos_;
        skip();
      } while (more('}'));
  } else if (c == '[') {
    if (begin_array()) do {
        skip();
      } while (more(']'));
  } else if (c == '"') {
    quoted(nullptr);
  } else if (c == 't' || c == 'f') {
    boolean();
  } else if (!null()) {
    lex_number("bad number");
  }
  return text_.substr(begin, pos_ - begin);
}

std::string_view Reader::delimit() {
  const std::size_t begin = (peek(), pos_);
  if (std::string_view(",:]}").find(text_[pos_]) != std::string_view::npos)
    fail("bad number");
  // Locals, not members: a char read may alias *this, so members would be
  // reloaded on every byte.
  const char* const t = text_.data();
  const std::size_t n = text_.size();
  std::size_t i = pos_, depth = 0;
  do {
    if (i >= n) fail("unexpected end");
    const char c = t[i++];
    if (c == '"') {
      while (i < n && t[i] != '"') i += t[i] == '\\' ? 2 : 1;  // skips escapes
      if (i++ >= n) fail("unexpected end");
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (depth == 0) {  // a scalar: up to the next delimiter
      while (i < n && !is_space(t[i]) && t[i] != ',' && t[i] != ']' &&
             t[i] != '}')
        ++i;
    }
  } while (depth > 0);
  pos_ = i;
  return text_.substr(begin, pos_ - begin);
}

void Reader::finish() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  if (pos_ != text_.size()) fail("trailing characters after JSON value");
}

// ---------------------------------------------------------------------------
// Members
// ---------------------------------------------------------------------------

Members::Members(Reader& r) : r_(r) {
  if (r.peek() != '{') {
    r.skip();
    done_ = true;
  } else {
    done_ = !r.begin_object();
    depth_ = r.depth();
  }
}

bool Members::next_key() {
  if (!pending_ && !done_) {
    done_ = started_ && !r_.more('}');
    started_ = true;
    if (!done_) key_ = r_.key(buffer_);
    pending_ = !done_;
  }
  return pending_;
}

Reader* Members::find(std::string_view name) {
  if (!indexed_) {
    if (!next_key()) return nullptr;
    if (key_ == name) {
      pending_ = false;
      return &r_;
    }
    for (indexed_ = true; next_key(); pending_ = false)
      index_.emplace_back(key_, r_.skip());
  }
  for (const auto& [key, span] : index_) {
    if (key != name) continue;
    sub_ = Reader(span, depth_);
    return &sub_;
  }
  return nullptr;
}

Reader& Members::at(std::string_view name) {
  if (Reader* r = find(name)) return *r;
  fail("missing key '" + std::string(name) + "'");
}

void Members::finish() {
  for (; next_key(); pending_ = false) r_.skip();
}

// ---------------------------------------------------------------------------
// Value: a DOM built over the Reader
// ---------------------------------------------------------------------------

namespace {

Value build(Reader& r, std::string_view text) {
  Value v;
  const char c = r.peek();
  v.begin = r.pos();
  std::string buffer;
  if (c == '{') {
    v.type = Value::Type::kObject;
    if (r.begin_object()) do {
        std::string k(r.key(buffer));
        v.object.emplace(std::move(k), build(r, text));
      } while (r.more('}'));
  } else if (c == '[') {
    v.type = Value::Type::kArray;
    if (r.begin_array()) do {
        v.array.push_back(build(r, text));
      } while (r.more(']'));
  } else if (c == '"') {
    v.type = Value::Type::kString;
    v.str = r.string(buffer);
  } else if (c == 't' || c == 'f') {
    v.type = Value::Type::kBool;
    v.boolean = r.boolean();
  } else if (!r.null()) {
    v.type = Value::Type::kNumber;
    v.number = r.number();
    const std::string_view token = text.substr(v.begin, r.pos() - v.begin);
    v.integral = token.find_first_of(".eE") == std::string_view::npos;
    if (v.integral) v.integer = Reader(token).int64();
  }
  v.end = r.pos();
  return v;
}

}  // namespace

Value parse(std::string_view text) {
  Reader r(text);
  Value v = build(r, text);
  r.finish();
  return v;
}

const Value& Value::at(const std::string& k) const {
  const auto it = object.find(k);
  if (it == object.end()) fail("missing key '" + k + "'");
  return it->second;
}

const Value& Value::expect(Type t, bool ok, const char* what) const {
  if (type != t || !ok) fail(what);
  return *this;
}

std::string_view scan_member(std::string_view text, std::string_view key) {
  try {
    Reader r(text);
    std::string buffer;
    if (r.peek() == '{' && r.begin_object()) do {
        const bool match = r.key(buffer) == key;
        const std::string_view value = r.delimit();
        if (match) return value;
      } while (r.more('}'));
  } catch (const std::runtime_error&) {
  }
  return {};
}

}  // namespace karma::util::json
