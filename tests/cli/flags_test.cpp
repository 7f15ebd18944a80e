/// \file flags_test.cpp
/// \brief The flag parser on a toy table: each value kind's refusal,
/// repeated and dangling flags, `needs` and `required` rules, how a
/// wrong positional count is refused, and in which order.

#include "core/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace nodebench::flags {
namespace {

const Command& toy() {
  static const Command command{
      "toy",
      nullptr,
      {{"--on"},
       {"--name", Kind::Text},
       {"--many", Kind::RepeatedText},
       {"--count", Kind::PositiveInt},
       {"--index", Kind::NonNegativeInt},
       {"--bytes", Kind::ByteCount},
       {"--ratio", Kind::PositiveReal},
       {"--port", Kind::Port},
       {"--needy", Kind::Switch, {{"--name", "--needy requires --name"}}}},
      1,
      2,
      "a thing"};
  return command;
}

Parsed parseToy(std::vector<std::string> args) { return parse(toy(), args); }

std::string refusal(std::vector<std::string> args,
                    const Command& command = toy()) {
  try {
    (void)parse(command, args);
  } catch (const UsageError&) {
    return "usage";
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, ReadsEveryKind) {
  const Parsed args =
      parseToy({"a", "--on", "--name", "n", "--many", "x", "--many", "y",
                "--count", "3", "--index", "0", "--bytes",
                "18446744073709551615", "--ratio", "0.5", "--port", "0", "b"});
  EXPECT_EQ(args.positionals, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(args.has("--on"));
  EXPECT_EQ(args.text("--name"), "n");
  std::vector<std::string> many;
  EXPECT_TRUE(args.read("--many", many));
  EXPECT_EQ(many, (std::vector<std::string>{"x", "y"}));
  int count = 0;
  EXPECT_TRUE(args.read("--count", count));
  EXPECT_EQ(count, 3);
  std::uint64_t bytes = 0;
  EXPECT_TRUE(args.read("--bytes", bytes));
  EXPECT_EQ(bytes, UINT64_MAX);
  double ratio = 0.0;
  EXPECT_TRUE(args.read("--ratio", ratio));
  EXPECT_EQ(ratio, 0.5);
  int absent = 7;
  EXPECT_FALSE(args.read("--index-missing", absent));
  EXPECT_EQ(absent, 7);
}

TEST(Flags, RefusesMalformedValues) {
  EXPECT_EQ(refusal({"a", "--count", "0"}),
            "--count expects a positive integer, got '0'");
  EXPECT_EQ(refusal({"a", "--count", "8x"}),
            "--count expects a positive integer, got '8x'");
  EXPECT_EQ(refusal({"a", "--index", "-1"}),
            "--index expects a non-negative integer, got '-1'");
  EXPECT_EQ(refusal({"a", "--bytes", " 8"}),
            "--bytes expects a non-negative integer, got ' 8'");
  EXPECT_EQ(refusal({"a", "--bytes", "18446744073709551616"}),
            "--bytes expects a non-negative integer, got "
            "'18446744073709551616'");
  EXPECT_EQ(refusal({"a", "--ratio", "nan"}),
            "--ratio expects a positive number, got 'nan'");
  EXPECT_EQ(refusal({"a", "--port", "65536"}),
            "--port expects a port number 0..65535, got '65536'");
}

TEST(Flags, RefusesUnknownRepeatedDanglingAndEmptyFlags) {
  EXPECT_EQ(refusal({"a", "--bogus"}), "unknown or duplicate flag: --bogus");
  EXPECT_EQ(refusal({"a", "--on", "--on"}), "unknown or duplicate flag: --on");
  EXPECT_EQ(refusal({"a", "--name", "x", "--name", "y"}),
            "unknown or duplicate flag: --name");
  EXPECT_EQ(refusal({"a", "--name"}), "--name expects a value");
  EXPECT_EQ(refusal({"a", "--name", ""}), "--name expects a value");
  EXPECT_EQ(refusal({"a", "--count", ""}),
            "--count expects a positive integer, got ''");
}

TEST(Flags, RefusesABrokenRule) {
  EXPECT_EQ(refusal({"a", "--needy"}), "--needy requires --name");
  EXPECT_EQ(refusal({"a", "--needy", "--name", "n"}), "");
}

TEST(Flags, RefusesAWrongPositionalCount) {
  EXPECT_EQ(refusal({}), "usage");
  EXPECT_EQ(refusal({"--on"}), "toy: expected a thing");
  EXPECT_EQ(refusal({"a", "b", "c"}), "toy: unexpected argument 'c'");
  Command strict = toy();
  strict.usageOnExtra = true;
  EXPECT_EQ(refusal({"a", "b", "c"}, strict), "usage");
}

TEST(Flags, ChecksRequiredFlagsThenTheCountThenRules) {
  Command strict = toy();
  strict.required = {{"--count", "toy requires --count"}};
  EXPECT_EQ(refusal({"--needy"}, strict), "toy requires --count");
  EXPECT_EQ(refusal({"--needy", "--count", "1"}, strict),
            "toy: expected a thing");
  EXPECT_EQ(refusal({"a", "--needy", "--count", "1"}, strict),
            "--needy requires --name");
}

}  // namespace
}  // namespace nodebench::flags
