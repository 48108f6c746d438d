// Structured-mutation fuzz of every artifact reader (ROADMAP item 4a).
//
// Inputs are the checked-in golden fixtures (request, error, plan,
// placement, calibration, profile, plus the fleet member of the request
// fixture). Each is mutated by truncation, byte flips, dropped and
// duplicated members, splices between fixtures, nesting bombs, and huge
// numbers and strings, then fed to every reader. The contract: an input
// either parses to a value whose re-serialization is stable (serialize,
// parse, serialize again gives the same bytes), or it fails through the
// reader's error channel — PlanError{kParseError} for the api readers
// that return one, std::runtime_error for the throwing ones. Anything
// else (another exception type, a crash, a sanitizer report) is a bug.
//
// The seed is fixed so a failure reproduces; the suite runs in the tier-1
// gate and under ASan + UBSan.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/api/session.h"
#include "src/calib/profile.h"
#include "src/calib/table.h"
#include "src/util/json.h"

namespace karma {
namespace {

using util::json::Value;

std::string read_golden(const char* name) {
  const std::string path =
      std::string(KARMA_SOURCE_DIR) + "/tests/golden/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

/// Result of one reader on one input: parsed (with its re-serialization)
/// or rejected through the reader's error channel.
struct Outcome {
  bool parsed = false;
  std::string text;
};

struct Reader {
  const char* name;
  std::function<Outcome(std::string_view)> read;
};

template <class T, class Write>
Outcome from_expected(const api::Expected<T, api::PlanError>& r,
                      Write write) {
  if (r) return {true, write(r.value())};
  EXPECT_EQ(r.error().code, api::PlanErrorCode::kParseError)
      << r.error().message;
  return {};
}

/// Runs a throwing reader: std::runtime_error is its rejection channel;
/// any other exception type escapes to the test as a failure.
template <class F>
Outcome throwing(F f, std::string_view text) {
  try {
    return {true, f(text)};
  } catch (const std::runtime_error&) {
    return {};
  }
}

const std::vector<Reader>& readers() {
  static const std::vector<Reader> kReaders = {
      {"request_from_json",
       [](std::string_view s) {
         return from_expected(api::request_from_json(s),
                              [](const api::PlanRequest& r) {
                                return api::request_to_json(r);
                              });
       }},
      {"plan_from_json",
       [](std::string_view s) {
         return from_expected(api::plan_from_json(s), [](const api::Plan& p) {
           return api::plan_to_json(p);
         });
       }},
      // error_from_json never throws: a malformed envelope is itself a
      // kParseError PlanError, which must serialize stably too.
      {"error_from_json",
       [](std::string_view s) {
         return Outcome{true, api::error_to_json(api::error_from_json(s))};
       }},
      {"fleet_from_json",
       [](std::string_view s) {
         return throwing(
             [](std::string_view t) {
               return api::fleet_to_json(api::fleet_from_json(t));
             },
             s);
       }},
      {"placement_from_json",
       [](std::string_view s) {
         return throwing(
             [](std::string_view t) {
               return api::placement_to_json(api::placement_from_json(t));
             },
             s);
       }},
      {"CalibrationTable::from_json",
       [](std::string_view s) {
         return throwing(
             [](std::string_view t) {
               return calib::CalibrationTable::from_json(t).to_json();
             },
             s);
       }},
      {"ProfileArtifact::from_json",
       [](std::string_view s) {
         return throwing(
             [](std::string_view t) {
               return calib::ProfileArtifact::from_json(t).to_json();
             },
             s);
       }},
  };
  return kReaders;
}

/// Feeds `input` to every reader and checks the contract.
void check_all(const std::string& input, const std::string& how) {
  for (const Reader& reader : readers()) {
    const Outcome first = reader.read(input);
    if (!first.parsed) continue;
    const Outcome second = reader.read(first.text);
    ASSERT_TRUE(second.parsed)
        << reader.name << " rejects its own output after " << how;
    ASSERT_EQ(second.text, first.text)
        << reader.name << " re-serialization is unstable after " << how;
  }
}

/// One object member's text, `"key":value`, as offsets into its fixture.
/// The writer emits no whitespace, so the key starts key.size() + 3
/// bytes before the value.
struct Member {
  std::size_t begin;
  std::size_t end;
  std::size_t value_begin;
};

void collect(const Value& v, std::vector<Member>* members,
             std::vector<const Value*>* values) {
  values->push_back(&v);
  for (const Value& child : v.array) collect(child, members, values);
  for (const auto& [key, child] : v.object) {
    members->push_back({child.begin - key.size() - 3, child.end, child.begin});
    collect(child, members, values);
  }
}

struct Fixture {
  std::string name;
  std::string text;
  std::vector<Member> members;
  std::vector<const Value*> values;  // every value, root first
  Value dom;
};

std::vector<Fixture> load_fixtures() {
  std::vector<Fixture> fixtures;
  for (const char* name :
       {"request_fixture.json", "error_fixture.json", "plan_fixture.json",
        "placement_fixture.json", "calibration_fixture.json",
        "profile_fixture.json"})
    fixtures.push_back({name, read_golden(name), {}, {}, {}});
  // The fleet reader's input: the request fixture's fleet member.
  const std::string_view fleet =
      util::json::scan_member(fixtures[0].text, "fleet");
  fixtures.push_back({"fleet (from request_fixture.json)", std::string(fleet),
                      {}, {}, {}});
  for (Fixture& f : fixtures) {
    f.dom = util::json::parse(f.text);
    collect(f.dom, &f.members, &f.values);
  }
  return fixtures;
}

TEST(ReaderFuzz, GoldenFixturesParseUnderEveryReader) {
  // Sanity: each fixture is accepted by its own reader, so the mutations
  // below start from valid inputs. (Fixture i pairs with the reader that
  // owns its schema.)
  const std::vector<Fixture> fixtures = load_fixtures();
  const char* owner[] = {"request_from_json",
                         "error_from_json",
                         "plan_from_json",
                         "placement_from_json",
                         "CalibrationTable::from_json",
                         "ProfileArtifact::from_json",
                         "fleet_from_json"};
  ASSERT_EQ(fixtures.size(), std::size(owner));
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    ASSERT_FALSE(fixtures[i].text.empty()) << fixtures[i].name;
    for (const Reader& reader : readers()) {
      if (std::string_view(reader.name) != owner[i]) continue;
      const Outcome o = reader.read(fixtures[i].text);
      ASSERT_TRUE(o.parsed) << fixtures[i].name;
      EXPECT_EQ(o.text, fixtures[i].text) << fixtures[i].name;
    }
    check_all(fixtures[i].text, fixtures[i].name);
  }
}

TEST(ReaderFuzz, TruncationsAndByteFlips) {
  const std::vector<Fixture> fixtures = load_fixtures();
  std::mt19937_64 rng(0x5EEDF022ULL);
  for (const Fixture& f : fixtures) {
    const std::size_t n = f.text.size();
    for (int i = 0; i < 40; ++i) {
      const std::size_t cut = rng() % n;
      check_all(f.text.substr(0, cut),
                f.name + " truncated to " + std::to_string(cut));
    }
    for (int i = 0; i < 120; ++i) {
      std::string mutated = f.text;
      const std::size_t at = rng() % n;
      // Half single-bit flips (near misses: digits, quotes, braces), half
      // arbitrary bytes, including NUL and high-bit bytes.
      if (i % 2 == 0)
        mutated[at] = static_cast<char>(mutated[at] ^ (1 << (rng() % 8)));
      else
        mutated[at] = static_cast<char>(rng() % 256);
      check_all(mutated, f.name + " byte " + std::to_string(at) + " changed");
    }
  }
}

TEST(ReaderFuzz, DroppedAndDuplicatedMembers) {
  const std::vector<Fixture> fixtures = load_fixtures();
  for (const Fixture& f : fixtures) {
    for (const Member& m : f.members) {
      const std::string member = f.text.substr(m.begin, m.end - m.begin);
      // Drop the member with one adjacent comma.
      std::string dropped = f.text;
      if (f.text[m.begin - 1] == ',')
        dropped.erase(m.begin - 1, m.end - m.begin + 1);
      else if (m.end < f.text.size() && f.text[m.end] == ',')
        dropped.erase(m.begin, m.end - m.begin + 1);
      else
        dropped.erase(m.begin, m.end - m.begin);
      check_all(dropped, f.name + " without " + member.substr(0, 40));
      // Duplicate it; the copy carries a different value where one is at
      // hand, so first-wins and last-wins readers both get exercised.
      std::string twice = f.text;
      twice.insert(m.end, "," + member);
      check_all(twice, f.name + " with a second " + member.substr(0, 40));
      std::string conflicting = f.text;
      conflicting.insert(m.begin, f.text.substr(m.begin, m.value_begin -
                                                             m.begin) +
                                      "null,");
      check_all(conflicting, f.name + " with a null twin of " +
                                 member.substr(0, 40));
    }
  }
}

TEST(ReaderFuzz, SplicesBetweenFixtures) {
  const std::vector<Fixture> fixtures = load_fixtures();
  std::mt19937_64 rng(0x5B11CEULL);
  for (const Fixture& f : fixtures) {
    for (int i = 0; i < 150; ++i) {
      // Replace one value with a value from any fixture (type confusion,
      // nested artifacts in the wrong place).
      const Fixture& donor = fixtures[rng() % fixtures.size()];
      const Value* into = f.values[rng() % f.values.size()];
      const Value* from = donor.values[rng() % donor.values.size()];
      std::string spliced = f.text;
      spliced.replace(into->begin, into->end - into->begin,
                      from->span(donor.text));
      check_all(spliced, f.name + " value at " + std::to_string(into->begin) +
                             " replaced from " + donor.name);
    }
    for (const Fixture& donor : fixtures) {
      // Head of one fixture, tail of another.
      const std::size_t head = rng() % f.text.size();
      const std::size_t tail = rng() % donor.text.size();
      check_all(f.text.substr(0, head) + donor.text.substr(tail),
                f.name + " head + " + donor.name + " tail");
    }
  }
}

TEST(ReaderFuzz, NestingBombsHugeNumbersAndHugeStrings) {
  const std::vector<Fixture> fixtures = load_fixtures();
  const std::string deep_ok = std::string(200, '[') + std::string(200, ']');
  const std::string bomb = std::string(100000, '[') + std::string(100000, ']');
  const std::string object_bomb = [] {
    std::string s;
    for (int i = 0; i < 5000; ++i) s += "{\"a\":";
    s += "0";
    s += std::string(5000, '}');
    return s;
  }();
  const std::string huge_string = "\"" + std::string(1 << 18, 'x') + "\"";
  const char* numbers[] = {"1e999",
                           "-1e999",
                           "1e-400",
                           "99999999999999999999999999",
                           "-99999999999999999999999999",
                           "9223372036854775807",
                           "-9223372036854775808",
                           "9223372036854775808",
                           "4294967296",
                           "2147483648",
                           "-2147483649",
                           "-1",
                           "0.5",
                           "-0",
                           "1e308"};
  std::mt19937_64 rng(0xB0B5ULL);
  for (const Fixture& f : fixtures) {
    check_all(bomb, "a bare nesting bomb");
    for (int i = 0; i < 4; ++i) {
      const Value* into = f.values[rng() % f.values.size()];
      const auto with = [&](const std::string& replacement) {
        std::string s = f.text;
        s.replace(into->begin, into->end - into->begin, replacement);
        return s;
      };
      const std::string where = f.name + " value at " +
                                std::to_string(into->begin) + " replaced by ";
      check_all(with(deep_ok), where + "depth-200 nesting");
      check_all(with(bomb), where + "a nesting bomb");
      check_all(with(object_bomb), where + "an object nesting bomb");
      check_all(with(huge_string), where + "a 256 KiB string");
    }
    // Every number in the fixture, replaced in turn by each extreme.
    for (const Value* v : f.values) {
      if (v->type != Value::Type::kNumber) continue;
      const char* number = numbers[rng() % std::size(numbers)];
      std::string s = f.text;
      s.replace(v->begin, v->end - v->begin, number);
      check_all(s, f.name + " number at " + std::to_string(v->begin) +
                       " replaced by " + number);
    }
  }
}

}  // namespace
}  // namespace karma
