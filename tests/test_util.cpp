/**
 * @file
 * Unit tests for the util substrate: deterministic RNG, saturating
 * counters, table formatting and the time helpers.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "obs/counter.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace pcap {
namespace {

TEST(Types, SecondConversionsRoundTrip)
{
    EXPECT_EQ(secondsUs(1.0), 1'000'000);
    EXPECT_EQ(secondsUs(5.43), 5'430'000);
    EXPECT_EQ(millisUs(2.5), 2'500);
    EXPECT_DOUBLE_EQ(usToSeconds(secondsUs(12.75)), 12.75);
}

TEST(Types, NeverIsLaterThanAnyTime)
{
    EXPECT_GT(kTimeNever, secondsUs(1e12));
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(-3, 12);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 12);
    }
}

TEST(Rng, UniformIntCoversFullRange)
{
    Rng rng(8);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(9);
    EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval)
{
    Rng rng(10);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, Uniform01MeanNearHalf)
{
    Rng rng(11);
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        total += rng.uniform01();
    EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(12);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-3.0));
        EXPECT_TRUE(rng.chance(2.0));
    }
}

TEST(Rng, ChanceFrequencyTracksProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(14);
    double total = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += rng.exponential(4.0);
    EXPECT_NEAR(total / n, 4.0, 0.15);
}

TEST(Rng, ExponentialIsPositive)
{
    Rng rng(15);
    for (int i = 0; i < 1000; ++i)
        ASSERT_GT(rng.exponential(0.001), 0.0);
}

TEST(Rng, LogNormalMedianMatches)
{
    Rng rng(16);
    std::vector<double> samples;
    for (int i = 0; i < 20001; ++i)
        samples.push_back(rng.logNormal(10.0, 1.0));
    std::sort(samples.begin(), samples.end());
    // Median of a log-normal equals the median parameter.
    EXPECT_NEAR(samples[samples.size() / 2], 10.0, 0.6);
}

TEST(Rng, WeightedChoiceRespectsWeights)
{
    Rng rng(17);
    int counts[3] = {0, 0, 0};
    const int n = 30000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weightedChoice({1.0, 2.0, 7.0})];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.02);
}

TEST(Rng, WeightedChoiceZeroWeightNeverPicked)
{
    Rng rng(18);
    for (int i = 0; i < 1000; ++i)
        ASSERT_NE(rng.weightedChoice({1.0, 0.0, 1.0}), 1u);
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng parent(19);
    Rng childA = parent.fork(1);
    Rng childB = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += childA.next() == childB.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministicGivenParentState)
{
    Rng p1(20), p2(20);
    Rng c1 = p1.fork(9);
    Rng c2 = p2.fork(9);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(c1.next(), c2.next());
}

TEST(HashString, StableAndDiscriminating)
{
    EXPECT_EQ(hashString("mozilla"), hashString("mozilla"));
    EXPECT_NE(hashString("mozilla"), hashString("writer"));
    EXPECT_NE(hashString(""), hashString(" "));
}

TEST(SaturatingCounter, SaturatesAtBothEnds)
{
    SaturatingCounter counter(3);
    EXPECT_EQ(counter.value(), 0);
    counter.decrement();
    EXPECT_EQ(counter.value(), 0);
    for (int i = 0; i < 10; ++i)
        counter.increment();
    EXPECT_EQ(counter.value(), 3);
    EXPECT_TRUE(counter.isSaturated());
}

TEST(SaturatingCounter, ConfidenceIsUpperHalf)
{
    SaturatingCounter counter(3);
    EXPECT_FALSE(counter.isConfident()); // 0
    counter.increment();
    EXPECT_FALSE(counter.isConfident()); // 1
    counter.increment();
    EXPECT_TRUE(counter.isConfident()); // 2
    counter.increment();
    EXPECT_TRUE(counter.isConfident()); // 3
}

TEST(SaturatingCounter, InitialValueClamped)
{
    SaturatingCounter counter(3, 200);
    EXPECT_EQ(counter.value(), 3);
}

TEST(SaturatingCounter, ResetReturnsToZero)
{
    SaturatingCounter counter(7, 5);
    counter.reset();
    EXPECT_EQ(counter.value(), 0);
}

TEST(TextTable, AlignsColumnsAndUnderlinesHeader)
{
    TextTable table;
    table.setHeader({"a", "bbbb"});
    table.addRow({"cccc", "d"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a     bbbb"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_NE(out.find("cccc  d"), std::string::npos);
}

TEST(TextTable, HeaderInsertedBeforeExistingRows)
{
    TextTable table;
    table.addRow({"row"});
    table.setHeader({"head"});
    std::ostringstream os;
    table.print(os);
    EXPECT_LT(os.str().find("head"), os.str().find("row"));
}

TEST(Formatting, PercentAndFixedStrings)
{
    EXPECT_EQ(percentString(0.7634), "76.3%");
    EXPECT_EQ(percentString(0.7634, 2), "76.34%");
    EXPECT_EQ(fixedString(5.4321, 2), "5.43");
}

TEST(JsonParse, ReadsEveryValueKind)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(
        R"({"n": null, "t": true, "f": false, "pi": 3.25,
            "neg": -17, "exp": 2.5e3,
            "s": "a \"quoted\" A\n",
            "list": [1, [2], {"k": "v"}],
            "nested": {"inner": {}}})",
        doc, &error))
        << error;

    EXPECT_TRUE(doc.find("n")->isNull());
    EXPECT_TRUE(doc.find("t")->asBool());
    EXPECT_FALSE(doc.find("f")->asBool(true));
    EXPECT_DOUBLE_EQ(doc.find("pi")->asDouble(), 3.25);
    EXPECT_DOUBLE_EQ(doc.find("neg")->asDouble(), -17.0);
    EXPECT_DOUBLE_EQ(doc.find("exp")->asDouble(), 2500.0);
    EXPECT_EQ(doc.find("s")->asString(), "a \"quoted\" A\n");

    const Json *list = doc.find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->size(), 3u);
    EXPECT_DOUBLE_EQ(list->at(0).asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(list->at(1).at(0).asDouble(), 2.0);
    EXPECT_EQ(list->at(2).find("k")->asString(), "v");

    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_TRUE(doc.find("nested")->find("inner")->isObject());
}

TEST(JsonParse, RejectsMalformedInput)
{
    const char *bad[] = {
        "",
        "{",
        "[1, 2",
        R"({"a": 1,})",
        R"({"a" 1})",
        R"({"a": 1} trailing)",
        "\"unterminated",
        "nul",
        "1..5",
        R"({"bad escape": "\q"})",
    };
    for (const char *text : bad) {
        Json doc;
        std::string error;
        EXPECT_FALSE(Json::parse(text, doc, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JsonParse, RoundTripsThroughDump)
{
    Json doc;
    ASSERT_TRUE(Json::parse(
        R"({"b": [1, 2.5, "x"], "a": {"y": true}})", doc));

    std::ostringstream first;
    doc.dump(first);

    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(first.str(), reparsed, &error)) << error;
    std::ostringstream second;
    reparsed.dump(second);

    // Key order is insertion order and survives the round trip, so
    // the dumps are byte-identical.
    EXPECT_EQ(first.str(), second.str());
}

/** A nested document touching every dump path: empty containers,
 * escapes, integers past 9e15 and non-integers. */
Json
goldenDocument()
{
    Json doc = Json::object();
    doc["schema"] = "golden-v1";
    doc["empty_array"] = Json::array();
    doc["empty_object"] = Json::object();
    doc["escapes"] = std::string("q\"b\\n\nt\tr\rc\x01 end");
    doc["integers"].push(0);
    doc["integers"].push(-42);
    doc["integers"].push(9007199254740993ULL);
    doc["integers"].push(1e15);
    doc["fractions"].push(0.1);
    doc["fractions"].push(-2.5e-7);
    doc["fractions"].push(1.0 / 3.0);
    doc["fractions"].push(1e300);
    Json &nested = doc["nested"];
    nested["z"] = true;
    nested["a"] = Json();
    nested["list"].push(Json::object());
    nested["list"].push(Json::array());
    Json inner = Json::object();
    inner["deep"].push("x");
    inner["deep"].push(false);
    nested["list"].push(std::move(inner));
    doc["z_last"] = 7;
    return doc;
}

TEST(JsonDump, GoldenNestedDocument)
{
    const std::string expected = R"({
  "schema": "golden-v1",
  "empty_array": [],
  "empty_object": {},
  "escapes": "q\"b\\n\nt\tr\rc\u0001 end",
  "integers": [
    0,
    -42,
    9.00719925474e+15,
    1000000000000000
  ],
  "fractions": [
    0.1,
    -2.5e-07,
    0.333333333333,
    1e+300
  ],
  "nested": {
    "z": true,
    "a": null,
    "list": [
      {},
      [],
      {
        "deep": [
          "x",
          false
        ]
      }
    ]
  },
  "z_last": 7
})";
    const Json doc = goldenDocument();
    std::ostringstream os;
    doc.dump(os);
    EXPECT_EQ(os.str(), expected);

    // Copies keep member order, and stay intact when the original
    // goes away.
    Json assigned = Json::array();
    {
        const Json original = goldenDocument();
        assigned = original;
    }
    const Json copied(assigned);
    std::ostringstream a, b;
    assigned.dump(a);
    copied.dump(b);
    EXPECT_EQ(a.str(), expected);
    EXPECT_EQ(b.str(), expected);
}

} // namespace
} // namespace pcap
