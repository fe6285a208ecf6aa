#include "util/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace phonolid::util {
namespace {

using enum FlagKind;

const FlagSpec kTable[] = {
    {"name", "S", "any text"},
    {"count", "N", "a count", kInt, 1},
    {"port", "N", "a port", kInt, 0, 65535},
    {"rate", "X", "a rate", kNumber, 0},
    {"every", "S", "a positive interval", kNumber, kPositive},
    {"mode", "a|b|both", "a mode", kChoice},
};
const std::vector<std::string_view> kAll = {"name",  "count", "port",
                                            "rate",  "every", "mode"};

ParsedFlags parse(std::vector<std::string> args, bool stop = false) {
  return parse_flags(kTable, kAll, args, "test", stop);
}

void expect_rejected(std::vector<std::string> args, const std::string& text) {
  try {
    (void)parse(std::move(args));
    ADD_FAILURE() << "accepted, expected: " << text;
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
  }
}

TEST(Flags, ParsesEveryKind) {
  const ParsedFlags f =
      parse({"--name", "x", "pos", "--count", "3", "--port", "65535", "--rate",
             "0.5", "--every", "1e-3", "--mode", "both"});
  EXPECT_EQ(f.text("name"), "x");
  EXPECT_EQ(f.integer("count", 0), 3);
  EXPECT_EQ(f.integer("port", 0), 65535);
  EXPECT_DOUBLE_EQ(f.number("rate", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(f.number("every", 0.0), 1e-3);
  EXPECT_EQ(f.text("mode"), "both");
  EXPECT_EQ(f.positionals, std::vector<std::string>{"pos"});
}

TEST(Flags, AbsentFlagsFallBackAndLastRepeatWins) {
  const ParsedFlags f = parse({"--count", "2", "--count", "5"});
  EXPECT_EQ(f.integer("count", 9), 5);
  EXPECT_FALSE(f.has("port"));
  EXPECT_EQ(f.integer("port", 7), 7);
  EXPECT_EQ(f.text("name", "dflt"), "dflt");
}

TEST(Flags, RejectsValuesOutsideTheirRow) {
  expect_rejected({"--port", "70000"}, "flag --port expects N in [0, 65535]");
  expect_rejected({"--port", "-5"}, "flag --port ");
  expect_rejected({"--count", "0"}, "flag --count expects N >= 1");
  expect_rejected({"--count", "3x"}, "flag --count expects an integer");
  expect_rejected({"--count", ""}, "flag --count expects an integer");
  expect_rejected({"--rate", "-0.02"}, "flag --rate expects X >= 0");
  expect_rejected({"--rate", "nan"}, "flag --rate ");
  expect_rejected({"--rate", "two"}, "flag --rate expects a number");
  expect_rejected({"--every", "0"}, "flag --every expects S > 0");
  expect_rejected({"--mode", "x"}, "flag --mode expects a|b|both");
  expect_rejected({"--mode", "a|b"}, "flag --mode ");
}

TEST(Flags, RejectsUnknownAndValuelessFlags) {
  expect_rejected({"--nope", "1"}, "unknown flag --nope for test");
  expect_rejected({"--count"}, "flag --count expects a value");
  const std::vector<std::string_view> only_name = {"name"};
  EXPECT_THROW((void)parse_flags(kTable, only_name,
                                 std::vector<std::string>{"--count", "1"}, "t"),
               UsageError);
}

TEST(Flags, StopAtPositionalLeavesTheRestUnparsed) {
  const ParsedFlags f =
      parse({"--count", "2", "run", "--nope", "x", "--count", "9"}, true);
  EXPECT_EQ(f.integer("count", 0), 2);
  EXPECT_EQ(f.positionals,
            (std::vector<std::string>{"run", "--nope", "x", "--count", "9"}));
}

TEST(Flags, IntegerAtMostChecksOnlyGivenValues) {
  const ParsedFlags f = parse({"--count", "7"});
  EXPECT_EQ(f.integer_at_most("count", 3, 7), 7);
  EXPECT_THROW((void)f.integer_at_most("count", 3, 6), UsageError);
  EXPECT_EQ(parse({}).integer_at_most("count", 3, 2), 3);
}

TEST(Flags, HelpListsEveryRowWithItsRange) {
  const std::string help = format_flag_help(kTable);
  for (const FlagSpec& spec : kTable) {
    EXPECT_NE(help.find("--" + std::string(spec.name)), std::string::npos);
  }
  EXPECT_NE(help.find("N in [0, 65535]"), std::string::npos) << help;
  EXPECT_NE(help.find("S > 0"), std::string::npos) << help;
}

}  // namespace
}  // namespace phonolid::util
