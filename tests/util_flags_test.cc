#include "util/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace qa {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags f = make({"--kmax=4", "--csv=out.csv"});
  EXPECT_EQ(f.get_int("kmax", 0), 4);
  EXPECT_EQ(f.get_or("csv", ""), "out.csv");
}

TEST(Flags, SpaceForm) {
  const Flags f = make({"--duration", "90", "--name", "t2"});
  EXPECT_DOUBLE_EQ(f.get_double("duration", 0), 90.0);
  EXPECT_EQ(f.get_or("name", ""), "t2");
}

TEST(Flags, BooleanSwitches) {
  const Flags f = make({"--red", "--no-monotone"});
  EXPECT_TRUE(f.get_bool("red", false));
  EXPECT_FALSE(f.get_bool("monotone", true));
  EXPECT_TRUE(f.get_bool("absent", true));
  EXPECT_FALSE(f.get_bool("absent2", false));
}

TEST(Flags, BooleanExplicitValues) {
  const Flags f = make({"--a=true", "--b=0", "--c=yes"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
}

TEST(Flags, DefaultsWhenMissing) {
  const Flags f = make({});
  EXPECT_EQ(f.get_int("kmax", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(f.get("nothing").has_value());
}

TEST(Flags, PositionalArguments) {
  const Flags f = make({"input.csv", "--kmax=2", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, UnusedDetectsTypos) {
  const Flags f = make({"--kmax=2", "--tyop=1"});
  EXPECT_EQ(f.get_int("kmax", 0), 2);
  const auto unused = f.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "tyop");
}

TEST(Flags, HasMarksQueried) {
  const Flags f = make({"--help"});
  EXPECT_TRUE(f.has("help"));
  EXPECT_TRUE(f.unused().empty());
}

TEST(Flags, NumericValuesParseWhole) {
  const Flags f = make({"--n=-3", "--x=2.5", "--y=1e3"});
  EXPECT_EQ(f.get_int("n", 0), -3);
  EXPECT_DOUBLE_EQ(f.get_double("x", 0), 2.5);
  EXPECT_DOUBLE_EQ(f.get_double("y", 0), 1000.0);
}

// An empty value (--seed= or a bare --seed) falls back to the default.
TEST(Flags, EmptyNumericValueTakesTheDefault) {
  const Flags f = make({"--seed=", "--rate"});
  EXPECT_EQ(f.get_int("seed", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 2.5), 2.5);
}

// The message of a rejected value, or "" if the getter accepted it.
template <typename Get>
std::string rejection(Get get) {
  try {
    get();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// A value that does not parse whole is an error naming the flag and the
// value: "abc" used to run as seed 0 and "5s" as 5.
TEST(Flags, MalformedNumbersAreRejectedByName) {
  const Flags f = make({"--seed=abc", "--duration-s=5s", "--rate=1e400",
                        "--kmax=1.5", "--big=99999999999999999999",
                        "--x=nan"});
  EXPECT_EQ(rejection([&] { f.get_int("seed", 1); }),
            "invalid value 'abc' for --seed (want an integer)");
  EXPECT_EQ(rejection([&] { f.get_double("seed", 1); }),
            "invalid value 'abc' for --seed (want a finite number)");
  EXPECT_EQ(rejection([&] { f.get_double("duration-s", 20); }),
            "invalid value '5s' for --duration-s (want a finite number)");
  EXPECT_EQ(rejection([&] { f.get_int("duration-s", 20); }),
            "invalid value '5s' for --duration-s (want an integer)");
  EXPECT_NE(rejection([&] { f.get_double("rate", 0); }), "");
  EXPECT_NE(rejection([&] { f.get_int("kmax", 1); }), "");
  EXPECT_NE(rejection([&] { f.get_int("big", 0); }), "");
  EXPECT_NE(rejection([&] { f.get_double("x", 0); }), "");
}

// The canonical enumerated-flag diagnostic: it must quote the rejected
// value and list every alternative, so tools never reject a --preset or
// --backend without telling the user what they could have typed.
TEST(Flags, InvalidChoiceListsTheValidValues) {
  EXPECT_EQ(invalid_choice("--preset", "fig99", {"fig12", "fig13"}),
            "unknown --preset 'fig99' (valid values: fig12, fig13)");
  EXPECT_EQ(invalid_choice("--backend", "cubic", {"rap", "tfrc", "nada"}),
            "unknown --backend 'cubic' (valid values: rap, tfrc, nada)");
  EXPECT_EQ(invalid_choice("--mode", "", {"only"}),
            "unknown --mode '' (valid values: only)");
}

}  // namespace
}  // namespace qa
