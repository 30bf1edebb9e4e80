#include "common/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace csod {
namespace {

FlagParser ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  FlagParser parser;
  EXPECT_TRUE(
      parser
          .Parse(static_cast<int>(args.size()),
                 const_cast<char**>(const_cast<const char**>(args.data())))
          .ok());
  return parser;
}

TEST(FlagsTest, EqualsForm) {
  FlagParser p = ParseArgs({"--m=400", "--alpha=0.9", "--name=test"});
  EXPECT_EQ(p.GetInt("m", 0), 400);
  EXPECT_DOUBLE_EQ(p.GetDouble("alpha", 0.0), 0.9);
  EXPECT_EQ(p.GetString("name", ""), "test");
}

TEST(FlagsTest, SpaceForm) {
  FlagParser p = ParseArgs({"--trials", "30"});
  EXPECT_EQ(p.GetInt("trials", 0), 30);
}

TEST(FlagsTest, BareBoolean) {
  FlagParser p = ParseArgs({"--quick"});
  EXPECT_TRUE(p.GetBool("quick", false));
  EXPECT_TRUE(p.Has("quick"));
  EXPECT_FALSE(p.Has("slow"));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  FlagParser p = ParseArgs({});
  EXPECT_EQ(p.GetInt("m", 123), 123);
  EXPECT_DOUBLE_EQ(p.GetDouble("x", 2.5), 2.5);
  EXPECT_EQ(p.GetString("s", "dft"), "dft");
  EXPECT_FALSE(p.GetBool("b", false));
  EXPECT_TRUE(p.GetBool("b", true));
}

TEST(FlagsTest, IntList) {
  FlagParser p = ParseArgs({"--m=100,200,300"});
  const std::vector<int64_t> expected = {100, 200, 300};
  EXPECT_EQ(p.GetIntList("m", {}), expected);
  const std::vector<int64_t> fallback = {1, 2};
  EXPECT_EQ(p.GetIntList("absent", fallback), fallback);
}

TEST(FlagsTest, PositionalArguments) {
  FlagParser p = ParseArgs({"input.txt", "--k=5", "more"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.txt");
  EXPECT_EQ(p.positional()[1], "more");
  EXPECT_EQ(p.GetInt("k", 0), 5);
}

TEST(FlagsTest, NamesListsEveryFlagSorted) {
  FlagParser p = ParseArgs({"detect", "--m=4", "--quick", "--alpha", "0.5"});
  const std::vector<std::string> expected = {"alpha", "m", "quick"};
  EXPECT_EQ(p.Names(), expected);
  EXPECT_TRUE(ParseArgs({"detect"}).Names().empty());
}

TEST(FlagsTest, BoolSpellings) {
  FlagParser p = ParseArgs({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_TRUE(p.GetBool("b", false));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
}

}  // namespace
}  // namespace csod
