#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace chicsim::util {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return std::vector<const char*>(args);
}

TEST(Cli, DefaultsWhenUnset) {
  CliParser cli("prog", "test");
  cli.add_option("es", "JobLocal", "algorithm");
  auto args = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get("es"), "JobLocal");
}

TEST(Cli, EqualsForm) {
  CliParser cli("prog", "test");
  cli.add_option("seed", "1", "seed");
  auto args = argv_of({"prog", "--seed=42"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("seed"), 42);
}

TEST(Cli, SpaceForm) {
  CliParser cli("prog", "test");
  cli.add_option("seed", "1", "seed");
  auto args = argv_of({"prog", "--seed", "7"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("seed"), 7);
}

TEST(Cli, FlagForms) {
  CliParser cli("prog", "test");
  cli.add_flag("verbose", "chatty");
  cli.add_flag("quiet", "silent");
  auto args = argv_of({"prog", "--verbose", "--quiet=false"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_FALSE(cli.get_flag("quiet"));
}

TEST(Cli, DoubleParsing) {
  CliParser cli("prog", "test");
  cli.add_option("bw", "10", "bandwidth");
  auto args = argv_of({"prog", "--bw=100.5"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("bw"), 100.5);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  auto args = argv_of({"prog", "--help"});
  EXPECT_FALSE(cli.parse(static_cast<int>(args.size()), args.data()));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli("prog", "test");
  auto args = argv_of({"prog", "--bogus=1"});
  EXPECT_THROW((void)cli.parse(static_cast<int>(args.size()), args.data()), SimError);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("prog", "test");
  cli.add_option("seed", "1", "seed");
  auto args = argv_of({"prog", "--seed"});
  EXPECT_THROW((void)cli.parse(static_cast<int>(args.size()), args.data()), SimError);
}

TEST(Cli, PositionalArgumentThrows) {
  CliParser cli("prog", "test");
  auto args = argv_of({"prog", "stray"});
  EXPECT_THROW((void)cli.parse(static_cast<int>(args.size()), args.data()), SimError);
}

// `--set a=1 --set b=2` used to keep only `b=2`; a repeated option is an
// error that names it, in every form.
TEST(Cli, RepeatedOptionThrowsNamingIt) {
  const std::vector<std::pair<std::string, std::vector<const char*>>> cases = {
      {"--set", argv_of({"prog", "--set", "a=1", "--set", "b=2"})},
      {"--set", argv_of({"prog", "--set=a=1", "--set=b=2"})},
      {"--fast", argv_of({"prog", "--fast", "--fast=false"})},
  };
  for (const auto& [name, args] : cases) {
    CliParser cli("prog", "test");
    cli.add_option("set", "", "override");
    cli.add_flag("fast", "go fast");
    try {
      (void)cli.parse(static_cast<int>(args.size()), args.data());
      ADD_FAILURE() << "repeated " << name << " accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
}

TEST(Cli, NonNumericValueThrowsOnTypedGet) {
  CliParser cli("prog", "test");
  cli.add_option("n", "1", "count");
  auto args = argv_of({"prog", "--n=abc"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_THROW((void)cli.get_int("n"), SimError);
}

TEST(Cli, DuplicateDeclarationThrows) {
  CliParser cli("prog", "test");
  cli.add_option("x", "1", "x");
  EXPECT_THROW(cli.add_option("x", "2", "again"), SimError);
  EXPECT_THROW(cli.add_flag("x", "again"), SimError);
}

TEST(Cli, UsageMentionsOptionsAndDefaults) {
  CliParser cli("prog", "description here");
  cli.add_option("seed", "1", "random seed");
  cli.add_flag("fast", "go fast");
  std::string usage = cli.usage();
  EXPECT_NE(usage.find("--seed"), std::string::npos);
  EXPECT_NE(usage.find("default: 1"), std::string::npos);
  EXPECT_NE(usage.find("--fast"), std::string::npos);
  EXPECT_NE(usage.find("description here"), std::string::npos);
}

}  // namespace
}  // namespace chicsim::util
