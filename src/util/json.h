// Minimal deterministic JSON machinery, shared by every serialization
// layer in the repo (plan artifacts, request artifacts, the karma-pland
// wire protocol).
//
// Extracted from api/plan_io.cpp when the daemon grew a second and third
// consumer: one writer, one parser, one set of number-formatting rules —
// so a plan embedded in a wire envelope is byte-identical to the same
// plan written standalone, and the cache-key guarantees built on that
// byte-stability carry over to every schema.
//
//   Writer — append-only builder emitting keys in a fixed order. No
//            generic DOM on the write path: determinism falls out of the
//            code structure. Doubles print %.17g (bit-exact round-trip);
//            infinities as overflowing decimals ("1e999") since JSON has
//            no literal for them; NaN is rejected.
//   Value/Parser — a small recursive-descent parser into a DOM that keeps
//            both integer and double views of numbers, so Bytes fields
//            round-trip without float truncation. Parses from a
//            string_view: mmap'd cache entries parse in place, no copy.
//
// No third-party dependency, by design (the container bakes none in).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
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

/// Parsed JSON DOM node. Numbers keep both views so integer fields
/// round-trip exactly; accessors throw std::runtime_error on type
/// mismatch (the uniform "corrupt input" channel every reader maps to
/// its own structured error).
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
  /// Source span: [begin, end) offsets of this value's text in the parsed
  /// input. Lets an envelope consumer recover a nested artifact's EXACT
  /// original bytes (e.g. a plan embedded in a wire response) and reparse
  /// or byte-compare it without a re-serialization step that could drift.
  std::size_t begin = 0;
  std::size_t end = 0;

  /// This value's exact source text within `input` (the string_view the
  /// DOM was parsed from — the caller keeps it alive).
  std::string_view span(std::string_view input) const {
    return input.substr(begin, end - begin);
  }

  const Value& at(const std::string& k) const;
  bool has(const std::string& k) const { return object.count(k) != 0; }
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  bool as_bool() const;
  bool is_null() const { return type == Type::kNull; }
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so without a bound a 200 KB run of '[' from any client
/// overflows the stack; every schema here nests fewer than 10 levels.
inline constexpr int kMaxParseDepth = 256;

/// Parses exactly one JSON value spanning the whole input (trailing
/// garbage is an error). Throws std::runtime_error on malformed input,
/// including nesting deeper than kMaxParseDepth.
Value parse(std::string_view text);

/// Checked int64 -> int narrowing: huge values in corrupt input must fail
/// the parse, not wrap around and slip past downstream index validation.
int as_int32(const Value& v, const char* what);

/// Span of top-level member `key`'s value in a JSON object, found by a
/// DOM-free skip-scan (strings and {}/[] nesting tracked, nothing
/// validated or allocated). Returns an empty view when the key is absent
/// or the scan gets confused (escaped key names, malformed input) — the
/// caller falls back to the full parser, so this is a fast path, never an
/// acceptance decision. karma-pland uses it to digest a plan frame's
/// request bytes without building a DOM of the whole model description.
std::string_view scan_member(std::string_view text, std::string_view key);

}  // namespace karma::util::json
