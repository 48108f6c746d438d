// util::json double round-trip fuzz: calibration factors, profile timings,
// and plan costs all ride Writer::value(double)'s %.17g emission, and the
// content-hash / golden-fixture guarantees assume emit -> parse -> emit is
// bit-exact. This test drives random IEEE-754 bit patterns (deterministic
// seed, so CI failures reproduce) through a Writer array and back through
// both the pull Reader and parse(), comparing the raw bits of every
// double view. It also pins the number edges the Reader reads as strtod
// does, the escapes it accepts and rejects, and the nesting bound against
// stack-overflow bombs.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/json.h"

namespace karma::util::json {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

double double_of(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// Emits `values` as one JSON array and parses it back.
Value round_trip(const std::vector<double>& values, std::string* text) {
  Writer w;
  w.begin_array();
  for (const double d : values) w.value(d);
  w.end_array();
  *text = w.take();
  return parse(*text);
}

/// The array in `text` read by the pull Reader, one double per element.
std::vector<double> pull_doubles(const std::string& text) {
  Reader r(text);
  std::vector<double> out;
  if (r.begin_array()) do {
      out.push_back(r.number());
    } while (r.more(']'));
  r.finish();
  return out;
}

/// Asserts that every double view of `text` holds exactly `values`.
void expect_bit_exact(const std::vector<double>& values, const Value& root,
                      const std::string& text) {
  const std::vector<double> pulled = pull_doubles(text);
  ASSERT_EQ(root.array.size(), values.size());
  ASSERT_EQ(pulled.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // "-0" is an integral token; each view must still keep its sign.
    ASSERT_EQ(bits_of(root.array[i].number), bits_of(values[i]))
        << "value " << i << " drifted through '" << text << "'";
    ASSERT_EQ(bits_of(root.array[i].as_double()), bits_of(values[i])) << i;
    ASSERT_EQ(bits_of(pulled[i]), bits_of(values[i])) << i;
  }
}

TEST(JsonFuzz, RandomBitPatternDoublesRoundTripBitExact) {
  // Fixed seed: a failure here must reproduce, not flake.
  std::mt19937_64 rng(0xD0B1E5EEDULL);
  constexpr int kBatches = 64;
  constexpr int kPerBatch = 64;
  int tested = 0;

  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<double> values;
    values.reserve(kPerBatch);
    while (values.size() < kPerBatch) {
      const double d = double_of(rng());
      if (std::isnan(d)) continue;  // Writer rejects NaN by contract
      values.push_back(d);
    }
    std::string text;
    const Value root = round_trip(values, &text);
    expect_bit_exact(values, root, text);
    tested += static_cast<int>(values.size());
  }
  EXPECT_EQ(tested, kBatches * kPerBatch);
}

TEST(JsonFuzz, UniformMagnitudeDoublesRoundTripBitExact) {
  // Bit-pattern sampling is dominated by huge/tiny exponents; also sweep
  // the "ordinary" magnitudes cost models actually produce.
  std::mt19937_64 rng(0xCA11B8A7EDULL);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i)
    values.push_back(std::ldexp(mantissa(rng), exponent(rng)));
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(-std::numeric_limits<double>::denorm_min());
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(-std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::epsilon());

  std::string text;
  const Value root = round_trip(values, &text);
  expect_bit_exact(values, root, text);
}

TEST(JsonFuzz, SecondEmitIsByteIdentical) {
  // emit -> parse -> emit must be a fixed point: content hashes and golden
  // fixtures both lean on this.
  std::mt19937_64 rng(0x5EC0DD1ULL);
  std::vector<double> values;
  while (values.size() < 512) {
    const double d = double_of(rng());
    if (!std::isnan(d)) values.push_back(d);
  }
  std::string first;
  const Value root = round_trip(values, &first);
  Writer again;
  again.begin_array();
  for (const Value& v : root.array) again.value(v.number);
  again.end_array();
  EXPECT_EQ(again.take(), first);
}

TEST(JsonFuzz, RandomInt64RoundTripsThroughTheIntegerView) {
  std::mt19937_64 rng(0x1234CAFEULL);
  std::vector<std::int64_t> values = {
      0,
      -1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (int i = 0; i < 2048; ++i)
    values.push_back(static_cast<std::int64_t>(rng()));

  Writer w;
  w.begin_array();
  for (const std::int64_t v : values) w.value(v);
  w.end_array();
  const std::string text = w.take();
  const Value root = parse(text);
  ASSERT_EQ(root.array.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(root.array[i].integral) << i;
    ASSERT_EQ(root.array[i].as_int(), values[i]) << i;
  }
}

TEST(JsonFuzz, NanIsRejectedInfinitiesOverflowBack) {
  // A throwing value() leaves the Writer's comma state behind, so the
  // NaN probe gets its own scratch writer.
  Writer scratch;
  EXPECT_THROW(scratch.value(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  Writer w;
  w.begin_array();
  // Infinities emit as overflowing decimals; strtod saturates them back.
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.end_array();
  const Value root = parse(w.take());
  ASSERT_EQ(root.array.size(), 2u);
  EXPECT_EQ(root.array[0].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(root.array[1].number, -std::numeric_limits<double>::infinity());
}

TEST(JsonFuzz, ReaderReadsNumberEdgesAsStrtodDoes) {
  for (const char* token :
       {"1e999", "-1e999", "1e-400", "-1e-400", "4.9406564584124654e-324",
        "2.2250738585072009e-308", "-2.2250738585072009e-308", "+1.5",
        "+7", "-0", "+0", "-0.0", "007", "1.", ".5", "-.5e-3", "1E+2"}) {
    Reader r(token);
    const double pulled = r.number();
    r.finish();
    EXPECT_EQ(bits_of(pulled), bits_of(std::strtod(token, nullptr))) << token;
    EXPECT_EQ(bits_of(parse(token).as_double()), bits_of(pulled)) << token;
  }
  EXPECT_EQ(Reader("1e999").number(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(Reader("1e-400").number(), 0.0);
  EXPECT_EQ(Reader("4.9406564584124654e-324").number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(Reader("+7").int64(), 7);
  for (const char* bad : {"+-1", "--1", "-", "+", "1e", "1e+", "1.5.2", "1-2",
                          "e5", ".", "0x10", "1ee2"}) {
    Reader r(bad);
    EXPECT_THROW((r.number(), r.finish()), std::runtime_error) << bad;
    EXPECT_THROW(parse(bad), std::runtime_error) << bad;
  }
}

TEST(JsonFuzz, ReaderIntegersRejectOverflowAndFractions) {
  EXPECT_EQ(Reader("9223372036854775807").int64(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Reader("-9223372036854775808").int64(),
            std::numeric_limits<std::int64_t>::min());
  for (const char* bad : {"9223372036854775808", "-9223372036854775809",
                          "99999999999999999999999999", "1.0", "1e3", "\"1\""})
    EXPECT_THROW(Reader(bad).int64(), std::runtime_error) << bad;
  EXPECT_EQ(Reader("2147483647").int32("x"), 2147483647);
  EXPECT_THROW(Reader("2147483648").int32("x"), std::runtime_error);
  EXPECT_THROW(Reader("-2147483649").int32("x"), std::runtime_error);
}

TEST(JsonFuzz, RfcEscapesIncludingBackspaceAndFormFeedRead) {
  // Python's json.dumps writes \b and \f; the writer itself emits \u00XX.
  const std::string text = R"("a\b\f\n\r\t\/\\\"\u0001\u007f")";
  const std::string expected = "a\b\f\n\r\t/\\\"\x01\x7f";
  EXPECT_EQ(parse(text).as_string(), expected);
  EXPECT_EQ(Reader(text).string(), expected);
  Writer w;
  w.value(expected);
  EXPECT_EQ(Reader(w.take()).string(), expected);
  for (const char* bad : {R"("\u0080")", R"("\u00e9")", R"("\uffff")",
                          R"("\x")", R"("\u12")", R"("\u12g4")", R"("\)"})
    EXPECT_THROW(Reader(bad).string(), std::runtime_error) << bad;
}

TEST(JsonFuzz, MembersMatchInOrderThenFallBackToAnIndex) {
  const auto read = [](const std::string& text,
                       std::vector<std::string_view> names) {
    Reader r(text);
    Members m(r);
    std::string got;
    for (const std::string_view name : names) {
      Reader* v = m.find(name);
      got += v == nullptr ? "-" : std::to_string(v->int64());
    }
    m.finish();
    r.finish();
    return got;
  };
  EXPECT_EQ(read(R"({"a":1,"b":2,"c":3})", {"a", "b", "c"}), "123");
  EXPECT_EQ(read(R"({"c":3,"a":1,"b":2})", {"a", "b", "c"}), "123");
  EXPECT_EQ(read(R"({"a":1,"x":[{}],"b":2})", {"a", "b", "c"}), "12-");
  EXPECT_EQ(read(R"({"a":1,"a":9,"b":2})", {"a", "b"}), "12");
  EXPECT_EQ(read(R"({"b":2,"a":1,"a":9})", {"a", "b"}), "12");
  EXPECT_EQ(read(R"({"a":1})", {}), "");
  EXPECT_EQ(read(R"([1,2])", {"a"}), "-");  // a non-object has no members
  EXPECT_THROW(read(R"({"a":1,"b":[}})", {"a"}), std::runtime_error);
  Reader r(R"({"a":1})");
  Members m(r);
  EXPECT_THROW(m.at("b"), std::runtime_error);
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonFuzz, NestingBombThrowsInsteadOfOverflowingTheStack) {
  // 200 KB, far under the daemon's 64 MiB frame cap: unbounded recursion
  // used to segfault on it.
  EXPECT_THROW(parse(nested_arrays(100000)), std::runtime_error);
  EXPECT_THROW(parse(nested_arrays(kMaxParseDepth + 1)), std::runtime_error);
  EXPECT_THROW(Reader(nested_arrays(100000)).skip(), std::runtime_error);
  EXPECT_THROW(Reader(nested_arrays(kMaxParseDepth + 1)).skip(),
               std::runtime_error);
  EXPECT_EQ(Reader(nested_arrays(kMaxParseDepth)).skip().size(),
            2u * kMaxParseDepth);
  // A reader over a nested span counts the levels around it.
  EXPECT_THROW(Reader("[[]]", kMaxParseDepth - 1).skip(), std::runtime_error);
  // Objects count toward the same bound as arrays.
  std::string objects;
  for (int i = 0; i <= kMaxParseDepth; ++i) objects += "{\"k\":";
  objects += "0" + std::string(kMaxParseDepth + 1, '}');
  EXPECT_THROW(parse(objects), std::runtime_error);
}

TEST(JsonFuzz, NestingWithinTheBoundStillParses) {
  for (const std::size_t depth :
       {std::size_t{200}, static_cast<std::size_t>(kMaxParseDepth)}) {
    const Value root = parse(nested_arrays(depth));
    const Value* v = &root;
    std::size_t levels = 1;
    while (!v->array.empty()) {
      v = &v->array.front();
      ++levels;
    }
    EXPECT_EQ(v->type, Value::Type::kArray);
    EXPECT_EQ(levels, depth);
  }
}

}  // namespace
}  // namespace karma::util::json
