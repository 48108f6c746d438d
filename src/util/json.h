// Minimal deterministic JSON machinery, shared by every serialization
// layer in the repo (plan and request artifacts, the karma-pland wire
// protocol): one writer and one grammar, so a plan embedded in a wire
// envelope is byte-identical to the same plan written standalone.
//
//   Writer  — append-only builder emitting keys in a fixed order: no DOM
//             on the write path, so determinism falls out of the code
//             structure. Doubles print %.17g (bit-exact round-trip);
//             infinities as overflowing decimals ("1e999") since JSON has
//             no literal for them; NaN is rejected.
//   Reader  — a validating pull cursor over a string_view (mmap'd cache
//             entries read in place, no copy): the one grammar. Every
//             artifact and envelope reader pulls its members straight from
//             the bytes (Members matches them by name).
//   Value   — a DOM built over the Reader. parse(), Value and scan_member()
//             (like cache::request_fingerprint) stay only for the tests and
//             plannerbench/src/{service,main}.cpp, until the benchmark
//             replays the live layers (ROADMAP item 6); no reader in src/
//             uses them.
//
// No third-party dependency, by design (the container bakes none in).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace karma::util::json {

/// Append-only deterministic writer. Key order is the caller's call
/// order; equal inputs produce byte-identical output.
class Writer {
 public:
  std::string take() { return std::move(out_); }

  void begin_object() { punct('{'); }
  void end_object() { close('}'); }
  void begin_array() { punct('['); }
  void end_array() { close(']'); }

  void key(const char* k) {
    comma();
    string(k);
    out_ += ':';
    fresh_ = true;  // the value that follows must not emit a comma
  }

  void value(std::string_view s) { comma(); string(s); }
  void value(const char* s) { comma(); string(s); }
  void value(bool b) { comma(); out_ += b ? "true" : "false"; }
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(double d);
  void null() { comma(); out_ += "null"; }

  /// Splices pre-serialized JSON in as a value, verbatim. Lets an
  /// envelope embed an already-byte-stable artifact (e.g. a plan inside a
  /// wire response) without reparse/rewrite drift. The caller guarantees
  /// `json` is one well-formed JSON value.
  void raw(const std::string& json) {
    comma();
    out_ += json;
  }

 private:
  void string(std::string_view s);
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  void punct(char c) {
    comma();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
};

/// Deepest array/object nesting any read accepts: skip() and the DOM
/// recurse once per level, and every schema here nests fewer than 10.
inline constexpr int kMaxParseDepth = 256;

/// Validating pull cursor over one JSON text. Every read throws
/// std::runtime_error on malformed input or a value of another type.
/// Numbers read as strtod reads them (a leading '+', +/-inf on overflow,
/// zero on underflow, the sign of zero kept); a token without '.', 'e' or
/// 'E' must fit an int64. Strings are views into the input unless they
/// hold escapes (\u only up to 0x7F). Containers iterate as
///   if (r.begin_array()) do { ...read one value... } while (r.more(']'));
/// and count toward kMaxParseDepth from the reader's starting `depth`.
class Reader {
 public:
  explicit Reader(std::string_view text = {}, int depth = 0)
      : text_(text), depth_(depth) {}

  /// The next value's first byte, after whitespace.
  char peek() {
    // Every JSON whitespace byte is <= ' '; the writer emits none.
    if (pos_ < text_.size() && static_cast<unsigned char>(text_[pos_]) > ' ')
      return text_[pos_];
    return peek_past_space();
  }
  int depth() const { return depth_; }
  std::size_t pos() const { return pos_; }

  /// Consume '{' / '['; false when the container is empty (and closed).
  bool begin_object() { return open('{', '}'); }
  bool begin_array() { return open('[', ']'); }
  /// A member name (in `buffer` when it holds escapes) and its ':'.
  std::string_view key(std::string& buffer) {
    const std::string_view k = string(buffer);
    if (peek() != ':') expected(':');
    ++pos_;
    return k;
  }
  /// After a member or element: true at ',', false at `close` (consumed).
  bool more(char close) {
    const char c = peek();
    if (c == ',' || c == close) ++pos_;
    if (c == ',') return true;
    if (c != close) expected(close);
    --depth_;
    return false;
  }

  std::int64_t int64();
  int int32(const char* what);  ///< throws "<what> out of int range"
  double number();
  bool boolean();
  /// Consumes a null: true; false, consuming nothing, at any other value.
  bool null();
  std::string_view string(std::string& buffer) { return quoted(&buffer); }
  std::string string() {
    std::string buffer;
    return std::string(string(buffer));
  }
  /// Validates one value and returns its exact bytes.
  std::string_view skip();
  /// One value's bytes, found by its delimiters alone (strings and
  /// brackets tracked, nothing validated, nesting unbounded): only for
  /// bytes handed whole to a reader that validates them.
  std::string_view delimit();
  /// Nothing but whitespace may follow.
  void finish();

 private:
  struct Number {
    std::string_view token;
    bool integral;
    std::int64_t integer;
    double value;
  };
  char peek_past_space();
  [[noreturn]] static void expected(char c);
  bool open(char c, char close);
  /// A string, decoded into *buffer when it holds escapes; with no
  /// buffer, only validated.
  std::string_view quoted(std::string* buffer);
  Number lex_number(const char* type);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Pulls one object's members by name. Names asked for are matched
/// against the stream in order; the first one that is not next indexes
/// the rest of the object once (first duplicate wins), and later names
/// are looked up there. Any other value is consumed and has no members.
class Members {
 public:
  explicit Members(Reader& r);
  /// A reader at member `name`'s value, nullptr when absent. Read that
  /// value before the next find().
  Reader* find(std::string_view name);
  Reader& at(std::string_view name);  ///< throws "missing key '<name>'"
  /// Skips the members not asked for and consumes the object's end.
  void finish();

 private:
  bool next_key();

  Reader& r_;
  Reader sub_;  ///< reads an indexed member's span
  int depth_ = 0;
  bool started_ = false, pending_ = false, done_ = false, indexed_ = false;
  std::string_view key_;
  std::string buffer_;
  std::vector<std::pair<std::string, std::string_view>> index_;
};

/// Parsed JSON DOM node. Numbers keep both views so integer fields
/// round-trip exactly; accessors throw std::runtime_error on type
/// mismatch.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;
  bool integral = false;  ///< number was written without '.'/'e'
  std::string str;
  std::vector<Value> array;
  std::map<std::string, Value> object;
  /// [begin, end) offsets of this value's text in the parsed input.
  std::size_t begin = 0;
  std::size_t end = 0;

  std::string_view span(std::string_view input) const {
    return input.substr(begin, end - begin);
  }
  const Value& at(const std::string& k) const;
  bool has(const std::string& k) const { return object.count(k) != 0; }
  std::int64_t as_int() const {
    return expect(Type::kNumber, integral, "expected integer").integer;
  }
  /// The double view: "-0" keeps its sign.
  double as_double() const {
    return expect(Type::kNumber, true, "expected number").number;
  }
  const std::string& as_string() const {
    return expect(Type::kString, true, "expected string").str;
  }
  bool as_bool() const {
    return expect(Type::kBool, true, "expected bool").boolean;
  }
  bool is_null() const { return type == Type::kNull; }

 private:
  const Value& expect(Type t, bool ok, const char* what) const;
};

/// Parses exactly one JSON value spanning the whole input; duplicate
/// object keys keep the first.
Value parse(std::string_view text);

/// Span of top-level member `key`'s value in a JSON object; empty when it
/// is absent or the input is malformed before it. Values are delimited
/// (Reader::delimit), not validated.
std::string_view scan_member(std::string_view text, std::string_view key);

}  // namespace karma::util::json
