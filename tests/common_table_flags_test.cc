#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"

namespace bds {
namespace {

TEST(AsciiTableTest, RendersHeaderAndRows) {
  AsciiTable t({"solution", "time (m)"});
  t.AddRow({"BDS", "9.41"});
  t.AddRow({"Bullet", "28"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("solution"), std::string::npos);
  EXPECT_NE(s.find("BDS"), std::string::npos);
  EXPECT_NE(s.find("9.41"), std::string::npos);
  EXPECT_NE(s.find("Bullet"), std::string::npos);
}

TEST(AsciiTableTest, ColumnsAligned) {
  AsciiTable t({"a", "b"});
  t.AddRow({"longvalue", "x"});
  std::string s = t.ToString();
  // Every rendered line between separators must have equal length.
  size_t first_len = s.find('\n');
  std::vector<size_t> lens;
  size_t start = 0;
  while (start < s.size()) {
    size_t end = s.find('\n', start);
    if (end == std::string::npos) {
      break;
    }
    lens.push_back(end - start);
    start = end + 1;
  }
  ASSERT_GE(lens.size(), 4u);
  for (size_t len : lens) {
    EXPECT_EQ(len, first_len);
  }
}

TEST(AsciiTableTest, NumFormatting) {
  EXPECT_EQ(AsciiTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::Num(10.0, 0), "10");
}

// Helper to run the parser against a synthetic argv.
bool RunParser(FlagParser& parser, std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "test";
  argv.push_back(prog.data());
  for (auto& a : args) {
    argv.push_back(a.data());
  }
  return parser.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, ParsesAllKinds) {
  FlagParser p;
  int i = 0;
  double d = 0.0;
  bool b = false;
  std::string s;
  p.AddInt("count", &i, "");
  p.AddDouble("rate", &d, "");
  p.AddBool("verbose", &b, "");
  p.AddString("name", &s, "");
  ASSERT_TRUE(RunParser(p, {"--count", "3", "--rate=2.5", "--verbose", "--name=bds"}));
  EXPECT_EQ(i, 3);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "bds");
}

TEST(FlagParserTest, NoPrefixDisablesBool) {
  FlagParser p;
  bool b = true;
  p.AddBool("track", &b, "");
  ASSERT_TRUE(RunParser(p, {"--no-track"}));
  EXPECT_FALSE(b);
}

TEST(FlagParserTest, RejectsUnknownFlag) {
  FlagParser p;
  int i = 0;
  p.AddInt("count", &i, "");
  EXPECT_FALSE(RunParser(p, {"--bogus=1"}));
}

TEST(FlagParserTest, RejectsBadValue) {
  FlagParser p;
  int i = 0;
  p.AddInt("count", &i, "");
  EXPECT_FALSE(RunParser(p, {"--count=abc"}));
}

TEST(FlagParserTest, RejectsMissingValue) {
  FlagParser p;
  int i = 0;
  p.AddInt("count", &i, "");
  EXPECT_FALSE(RunParser(p, {"--count"}));
}

TEST(FlagParserTest, HelpReturnsFalse) {
  FlagParser p;
  EXPECT_FALSE(RunParser(p, {"--help"}));
}

TEST(FlagParserTest, DefaultsSurviveEmptyArgs) {
  FlagParser p;
  int i = 42;
  p.AddInt("count", &i, "");
  ASSERT_TRUE(RunParser(p, {}));
  EXPECT_EQ(i, 42);
}

}  // namespace
}  // namespace bds
