/**
 * @file
 * Unit tests for the command-line option parser behind every
 * `drsim <verb>`.
 */

#include <gtest/gtest.h>

#include <climits>

#include "sim/options.hh"

namespace drsim {
namespace {

struct Opts
{
    std::int64_t regs = 128;
    std::int64_t width = 4;
    std::string model = "precise";
    bool split = false;

    OptionParser
    parser()
    {
        OptionParser p;
        p.addInt("regs", &regs, "registers");
        p.addInt("width", &width, "issue width");
        p.addString("model", &model, "exception model");
        p.addFlag("split-queues", &split, "split queues");
        return p;
    }
};

bool
parse(OptionParser &p, std::initializer_list<const char *> args)
{
    std::vector<const char *> v(args);
    return p.parse(int(v.size()), v.data());
}

TEST(Options, DefaultsSurviveEmptyParse)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {}));
    EXPECT_EQ(o.regs, 128);
    EXPECT_EQ(o.model, "precise");
    EXPECT_FALSE(o.split);
}

TEST(Options, SpaceSeparatedValues)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {"--regs", "80", "--model", "imprecise"}));
    EXPECT_EQ(o.regs, 80);
    EXPECT_EQ(o.model, "imprecise");
}

TEST(Options, EqualsSeparatedValues)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {"--regs=96", "--width=8"}));
    EXPECT_EQ(o.regs, 96);
    EXPECT_EQ(o.width, 8);
}

TEST(Options, BareFlagSetsTrue)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {"--split-queues"}));
    EXPECT_TRUE(o.split);
}

TEST(Options, FlagWithExplicitValue)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {"--split-queues=true"}));
    EXPECT_TRUE(o.split);
    Opts o2;
    auto p2 = o2.parser();
    EXPECT_TRUE(parse(p2, {"--split-queues=false"}));
    EXPECT_FALSE(o2.split);
}

TEST(Options, UnknownOptionRejected)
{
    Opts o;
    auto p = o.parser();
    EXPECT_FALSE(parse(p, {"--bogus", "1"}));
    EXPECT_NE(p.error().find("unknown option"), std::string::npos);
}

TEST(Options, NonIntegerRejected)
{
    Opts o;
    auto p = o.parser();
    EXPECT_FALSE(parse(p, {"--regs", "many"}));
    EXPECT_NE(p.error().find("integer"), std::string::npos);
}

TEST(Options, MissingValueRejected)
{
    Opts o;
    auto p = o.parser();
    EXPECT_FALSE(parse(p, {"--regs"}));
    EXPECT_NE(p.error().find("needs a value"), std::string::npos);
}

TEST(Options, PositionalArgumentRejected)
{
    Opts o;
    auto p = o.parser();
    EXPECT_FALSE(parse(p, {"compress"}));
    EXPECT_NE(p.error().find("unexpected argument"),
              std::string::npos);
}

TEST(Options, HelpShortCircuits)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {"--help", "--regs", "banana"}));
    EXPECT_TRUE(p.helpRequested());
    EXPECT_EQ(o.regs, 128); // nothing after --help is parsed
}

TEST(Options, HelpTextListsEveryOption)
{
    Opts o;
    auto p = o.parser();
    const std::string help = p.helpText("drsim");
    EXPECT_NE(help.find("--regs"), std::string::npos);
    EXPECT_NE(help.find("--model"), std::string::npos);
    EXPECT_NE(help.find("--split-queues"), std::string::npos);
    EXPECT_NE(help.find("default: 128"), std::string::npos);
    EXPECT_NE(help.find("default: precise"), std::string::npos);
}

TEST(Options, HexIntegersAccepted)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {"--regs", "0x40"}));
    EXPECT_EQ(o.regs, 64);
}

TEST(Options, NegativeIntegersAccepted)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {"--regs", "-1"}));
    EXPECT_EQ(o.regs, -1);
}

TEST(Options, OutOfRangeRejectedWithRange)
{
    // The value that once ran 96 registers after int narrowing.
    std::int64_t regs = 128;
    OptionParser p;
    p.addInt("regs", &regs, "registers", 0, INT_MAX);
    EXPECT_FALSE(parse(p, {"--regs", "4294967392"}));
    EXPECT_NE(p.error().find("0..2147483647"), std::string::npos)
        << p.error();
    EXPECT_EQ(regs, 128);
    EXPECT_FALSE(parse(p, {"--regs=-1"}));
    EXPECT_TRUE(parse(p, {"--regs", "2147483647"}));
    EXPECT_EQ(regs, INT_MAX);
}

TEST(Options, OverflowRejected)
{
    Opts o;
    auto p = o.parser();
    EXPECT_FALSE(parse(p, {"--regs", "99999999999999999999"}));
    EXPECT_NE(p.error().find("integer"), std::string::npos);
    EXPECT_FALSE(parse(p, {"--regs", "0x8000000000000000"}));
    EXPECT_EQ(o.regs, 128);
    EXPECT_TRUE(parse(p, {"--regs", "-9223372036854775808"}));
    EXPECT_EQ(o.regs, INT64_MIN);
}

TEST(Options, LeadingZeroIsDecimal)
{
    Opts o;
    auto p = o.parser();
    EXPECT_TRUE(parse(p, {"--regs", "010"}));
    EXPECT_EQ(o.regs, 10);
}

TEST(Options, PositionalsCollectedOnlyWhenAllowed)
{
    Opts o;
    std::vector<std::string> names;
    auto p = o.parser();
    p.allowPositionals(&names, "[experiment...]");
    EXPECT_TRUE(parse(p, {"table1", "--regs", "80", "fig7"}));
    EXPECT_EQ(names, (std::vector<std::string>{"table1", "fig7"}));
    EXPECT_EQ(o.regs, 80);
    EXPECT_NE(p.helpText("drsim bench").find("[options] [experiment...]"),
              std::string::npos);
    // A dash-led word is still an option, not a positional.
    EXPECT_FALSE(parse(p, {"-x"}));
}

TEST(Options, RepeatedStringOptionAppends)
{
    std::vector<std::string> specs;
    OptionParser p;
    p.addStrings("spec", &specs, "sweep spec file");
    EXPECT_TRUE(parse(p, {"--spec", "a.json", "--spec=b.json"}));
    EXPECT_EQ(specs, (std::vector<std::string>{"a.json", "b.json"}));
}

} // namespace
} // namespace drsim
