#include <gtest/gtest.h>

#include "common/flags.hpp"

namespace spatl::common {
namespace {

Flags parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (auto& a : args) argv.push_back(a.data());
  return Flags(int(argv.size()), argv.data());
}

TEST(Flags, SpaceAndEqualsForms) {
  auto f = parse({"--arch", "resnet20", "--rounds=12"});
  EXPECT_EQ(f.get("arch"), "resnet20");
  EXPECT_EQ(f.get_int("rounds", 0), 12);
}

TEST(Flags, FallbacksWhenAbsent) {
  auto f = parse({});
  EXPECT_EQ(f.get("arch", "vgg11"), "vgg11");
  EXPECT_EQ(f.get_int("rounds", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("lr", 0.5), 0.5);
  EXPECT_TRUE(f.get_bool("verbose", true));
  EXPECT_FALSE(f.has("arch"));
}

TEST(Flags, BooleanFlagWithoutValue) {
  auto f = parse({"--verbose", "--arch", "cnn2"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_EQ(f.get("arch"), "cnn2");
}

TEST(Flags, Positionals) {
  auto f = parse({"train", "--rounds", "3", "extra"});
  EXPECT_EQ(f.positionals(), (std::vector<std::string>{"train", "extra"}));
}

TEST(Flags, TypeErrorsThrow) {
  auto f = parse({"--rounds", "many"});
  EXPECT_THROW(f.get_int("rounds", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("rounds", 0), std::invalid_argument);
}

TEST(Flags, UnknownFlagCheck) {
  auto f = parse({"--arch", "x", "--typo", "y"});
  EXPECT_THROW(f.check_known({"arch"}), std::invalid_argument);
  EXPECT_NO_THROW(f.check_known({"arch", "typo"}));
}

TEST(Flags, NumbersRejectTrailingCharacters) {
  auto f = parse({"--rounds", "1.9", "--lr", "0.05abc", "--width", "0.5"});
  EXPECT_THROW(f.get_int("rounds", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("lr", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(f.get_double("width", 0), 0.5);
}

TEST(Flags, BoolRejectsAnythingButItsSixSpellings) {
  auto f = parse({"--ckpt-verify", "maybe", "--a", "yes", "--b", "0",
                  "--c=no"});
  EXPECT_THROW(f.get_bool("ckpt-verify", false), std::invalid_argument);
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_FALSE(f.get_bool("c", true));
}

TEST(Flags, RepeatedFlagThrows) {
  EXPECT_THROW(parse({"--rounds", "1", "--arch", "cnn2", "--rounds", "2"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--rounds=1", "--rounds", "1"}), std::invalid_argument);
}

TEST(Flags, UnknownCheckRejectsPositionals) {
  auto f = parse({"--rounds", "2", "stray"});
  EXPECT_THROW(f.check_known({"rounds"}), std::invalid_argument);
}

}  // namespace
}  // namespace spatl::common
