// util::json double round-trip fuzz: calibration factors, profile timings,
// and plan costs all ride Writer::value(double)'s %.17g emission, and the
// content-hash / golden-fixture guarantees assume emit -> parse -> emit is
// bit-exact. This test drives random IEEE-754 bit patterns (deterministic
// seed, so CI failures reproduce) through a Writer array and back through
// parse(), comparing the raw bits of the parsed double view. It also pins
// the parser's nesting bound against stack-overflow bombs.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
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
    ASSERT_EQ(root.array.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      // Compare the strtod view (`number`), not as_double(): a token
      // like "-0" parses as integral and as_double() returns the int
      // cast (+0.0), but the double view preserves the sign bit.
      ASSERT_EQ(bits_of(root.array[i].number), bits_of(values[i]))
          << "value " << i << " drifted through '" << text << "'";
      ++tested;
    }
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
  ASSERT_EQ(root.array.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_EQ(bits_of(root.array[i].number), bits_of(values[i])) << i;
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

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonFuzz, NestingBombThrowsInsteadOfOverflowingTheStack) {
  // 200 KB, far under the daemon's 64 MiB frame cap: unbounded recursion
  // used to segfault on it.
  EXPECT_THROW(parse(nested_arrays(100000)), std::runtime_error);
  EXPECT_THROW(parse(nested_arrays(kMaxParseDepth + 1)), std::runtime_error);
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
