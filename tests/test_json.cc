/**
 * @file
 * Tests for the strict JSON parser and the streaming Writer
 * (common/json.hh), including its string escaping.
 *
 * The parser guards the results pipeline: `drsim report` and the
 * exporter round-trip tests consume artifacts through it, so it has
 * to accept exactly RFC 8259 — anything looser would let an emitter
 * bug ship silently.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/json.hh"
#include "common/logging.hh"

namespace drsim {
namespace {

using json::Value;

// ------------------------------------------------------------- accepts

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(json::parse("null").isNull());
    EXPECT_EQ(json::parse("true").asBool(), true);
    EXPECT_EQ(json::parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(json::parse("3.25").asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(json::parse("-0.5e2").asNumber(), -50.0);
    EXPECT_EQ(json::parse("18446744073709551615").asNumber(),
              18446744073709551615.0);
    EXPECT_EQ(json::parse("\"hi\"").asString(), "hi");
    EXPECT_EQ(json::parse("  42  ").asU64(), 42u);
}

TEST(Json, ParsesNestedStructures)
{
    const Value v = json::parse(
        R"({"a": [1, 2, {"b": null}], "c": {"d": "e"}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.members().size(), 2u);
    const Value &a = v.at("a");
    ASSERT_TRUE(a.isArray());
    EXPECT_EQ(a.items().size(), 3u);
    EXPECT_EQ(a.at(std::size_t(0)).asU64(), 1u);
    EXPECT_TRUE(a.at(std::size_t(2)).at("b").isNull());
    EXPECT_EQ(v.at("c").at("d").asString(), "e");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, PreservesMemberOrder)
{
    const Value v = json::parse(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "z");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "m");
}

TEST(Json, DecodesEscapesAndSurrogatePairs)
{
    EXPECT_EQ(json::parse(R"("a\"b\\c\/d\n\t\r\b\f")").asString(),
              "a\"b\\c/d\n\t\r\b\f");
    EXPECT_EQ(json::parse(R"("\u0041\u00e9")").asString(),
              "A\xc3\xa9");
    // U+1F600 as a surrogate pair -> 4-byte UTF-8.
    EXPECT_EQ(json::parse(R"("\ud83d\ude00")").asString(),
              "\xf0\x9f\x98\x80");
}

// ------------------------------------------------------------- rejects

void
expectRejected(const std::string &text)
{
    EXPECT_THROW(json::parse(text), FatalError) << text;
}

TEST(Json, RejectsNonJson)
{
    expectRejected("");
    expectRejected("nul");
    expectRejected("truefalse");
    expectRejected("{\"a\": 1,}");     // trailing comma
    expectRejected("[1 2]");           // missing comma
    expectRejected("{'a': 1}");        // single quotes
    expectRejected("{\"a\" 1}");       // missing colon
    expectRejected("[1, 2] trailing"); // content after the document
    expectRejected("{\"a\": 01}");     // leading zero
    expectRejected("[+1]");            // leading plus
    expectRejected("[1.]");            // bare fraction
    expectRejected("\"unterminated");
    expectRejected("\"ctl \x01 char\""); // raw control character
    expectRejected("\"\\q\"");           // unknown escape
    expectRejected("\"\\u12\"");         // short unicode escape
    expectRejected("\"\\ud83d\"");       // lone high surrogate
    expectRejected("[");
}

TEST(Json, AccessorsCheckKinds)
{
    const Value v = json::parse("[1, \"s\"]");
    EXPECT_THROW(v.asNumber(), FatalError);
    EXPECT_THROW(v.at("key"), FatalError);       // not an object
    EXPECT_THROW(v.at(std::size_t(2)), FatalError); // out of range
    EXPECT_THROW(v.at(std::size_t(1)).asU64(), FatalError);
    EXPECT_THROW(json::parse("-3").asU64(), FatalError);
    EXPECT_THROW(json::parse("1.5").asU64(), FatalError);
    const Value obj = json::parse(R"({"a": 1})");
    EXPECT_THROW(obj.at("b"), FatalError); // absent member
}

TEST(Json, U64RejectsTwoToTheSixtyFour)
{
    // 2^64 - 1 rounds to the double 2^64, which no uint64_t holds: it
    // must be refused, not cast (to 0 on x86).  The largest double
    // below 2^64 still converts exactly.
    EXPECT_THROW(json::parse("18446744073709551615").asU64(), FatalError);
    EXPECT_THROW(json::parse("18446744073709551616").asU64(), FatalError);
    EXPECT_EQ(json::parse("18446744073709549568").asU64(),
              18446744073709549568u);
}

TEST(Json, ErrorsCarryLocation)
{
    try {
        json::parse("{\n  \"a\": nope\n}");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

// -------------------------------------------------------------- escape

/** @p s as a JSON string literal, through the Writer. */
std::string
quoted(const std::string &s)
{
    return json::Writer().value(s).str();
}

TEST(Json, EscapeRoundTripsThroughParse)
{
    const std::string hostile =
        "plain \"quoted\" back\\slash\nnl\ttab\rcr\bbs\fff "
        "\x01\x1f high\xc3\xa9";
    EXPECT_EQ(json::parse(quoted(hostile)).asString(), hostile);
}

TEST(Json, EscapeLeavesPlainTextAlone)
{
    EXPECT_EQ(quoted("abc 123 ~"), "\"abc 123 ~\"");
    EXPECT_EQ(quoted("q\"q"), "\"q\\\"q\"");
    EXPECT_EQ(quoted(std::string(1, '\x02')), "\"\\u0002\"");
}

// -------------------------------------------------------------- Writer

using json::Writer;

/** {"name": "x", "axes": {"w": [4, 8], "e": []}, "runs": [{..}, {..}],
 *  "none": {}} through @p w. */
std::string
sampleDocument(Writer w)
{
    w.beginObject();
    w.key("name").value("x");
    w.key("axes").beginObject();
    w.key("w").beginArray().value(4).value(8).endArray();
    w.key("e").beginArray().endArray();
    w.endObject();
    w.key("runs").beginArray();
    for (int i = 0; i < 2; ++i) {
        w.beginObject();
        w.key("id").value(i);
        w.key("ok").value(i == 0);
        w.key("ipc").null();
        w.endObject();
    }
    w.endArray();
    w.key("none").beginObject().endObject();
    w.endObject();
    return w.str();
}

TEST(JsonWriter, CompactLayout)
{
    EXPECT_EQ(sampleDocument(Writer()),
              "{\"name\":\"x\",\"axes\":{\"w\":[4,8],\"e\":[]},"
              "\"runs\":[{\"id\":0,\"ok\":true,\"ipc\":null},"
              "{\"id\":1,\"ok\":false,\"ipc\":null}],\"none\":{}}");
}

TEST(JsonWriter, PrettyLayout)
{
    // Two-space indent, "key": value members, an array opened by a
    // scalar stays on one line, empty containers stay closed.
    EXPECT_EQ(sampleDocument(Writer(Writer::Style::Pretty)),
              "{\n"
              "  \"name\": \"x\",\n"
              "  \"axes\": {\n"
              "    \"w\": [4, 8],\n"
              "    \"e\": []\n"
              "  },\n"
              "  \"runs\": [\n"
              "    {\n"
              "      \"id\": 0,\n"
              "      \"ok\": true,\n"
              "      \"ipc\": null\n"
              "    },\n"
              "    {\n"
              "      \"id\": 1,\n"
              "      \"ok\": false,\n"
              "      \"ipc\": null\n"
              "    }\n"
              "  ],\n"
              "  \"none\": {}\n"
              "}");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    Writer w;
    w.beginObject();
    w.key("a\"b\\c\n").value(std::string("tab\there\x01"));
    w.endObject();
    EXPECT_EQ(w.str(), "{\"a\\\"b\\\\c\\n\":\"tab\\there\\u0001\"}");
    const Value v = json::parse(w.str());
    EXPECT_EQ(v.members()[0].first, "a\"b\\c\n");
    EXPECT_EQ(v.members()[0].second.asString(), "tab\there\x01");
}

TEST(JsonWriter, IntegersPrintVerbatim)
{
    Writer w;
    w.beginArray();
    w.value(std::numeric_limits<std::uint64_t>::max());
    w.value(std::int64_t(-42));
    w.value(std::numeric_limits<std::int64_t>::min());
    w.value(0);
    w.endArray();
    EXPECT_EQ(w.str(), "[18446744073709551615,-42,"
                       "-9223372036854775808,0]");
}

TEST(JsonWriter, DoublesPrintInShortestRoundTripForm)
{
    Writer w;
    w.beginArray();
    w.value(0.1);
    w.value(2.0);
    w.value(4.482758620689655);
    w.value(-1.5e-7);
    w.value(1e21);
    w.endArray();
    EXPECT_EQ(w.str(), "[0.1,2,4.482758620689655,-1.5e-07,1e+21]");
    const Value v = json::parse(w.str());
    EXPECT_EQ(v.at(2).asNumber(), 4.482758620689655);
    EXPECT_EQ(v.at(3).asNumber(), -1.5e-7);
}

TEST(JsonWriter, SerializeBytesAreStable)
{
    // serialize() walks the Writer but keeps its own rule: an
    // integral double in the 64-bit range prints as an integer, where
    // to_chars alone would write 1e+19.
    const std::string doc =
        "{\"s\":\"q\\\"\\u0001\",\"a\":[1,-2,0.5,1e+300,[],{}],"
        "\"big\":10000000000000000000,\"t\":true,\"n\":null,"
        "\"o\":{\"k\":[{\"x\":3.25}]}}";
    EXPECT_EQ(json::serialize(json::parse(doc)), doc);
}

} // namespace
} // namespace drsim
