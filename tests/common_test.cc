// Unit tests for src/common: status, rng, histogram, hashing, JSON.

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace scatter {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = TimeoutError("op timed out");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(s.message(), "op timed out");
  EXPECT_EQ(s.ToString(), "TIMEOUT: op timed out");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("missing"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(BallotTest, Ordering) {
  Ballot a{1, 5};
  Ballot b{1, 6};
  Ballot c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_FALSE(kInvalidBallot.valid());
  EXPECT_TRUE(a.valid());
  EXPECT_LT(kInvalidBallot, a);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = rng.Below(6);
    ASSERT_LT(v, 6u);
    counts[v]++;
  }
  for (const auto& [v, n] : counts) {
    EXPECT_NEAR(n, kDraws / 6, kDraws / 60) << "value " << v;
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    sum += rng.Exponential(250.0);
  }
  EXPECT_NEAR(sum / kDraws, 250.0, 5.0);
}

TEST(RngTest, ParetoRespectsMinimumAndHeavyTail) {
  Rng rng(13);
  double max_seen = 0;
  for (int i = 0; i < 100000; ++i) {
    double v = rng.Pareto(1.5, 10.0);
    ASSERT_GE(v, 10.0);
    max_seen = std::max(max_seen, v);
  }
  // A Pareto(1.5) tail should produce some very large values.
  EXPECT_GT(max_seen, 1000.0);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The child stream should not replicate the parent stream.
  Rng b(21);
  b.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(ZipfTest, DegenerateUniform) {
  Rng rng(31);
  ZipfSampler zipf(10, 0.0);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [v, n] : counts) {
    EXPECT_NEAR(n, 5000, 500) << "value " << v;
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng(33);
  ZipfSampler zipf(1000, 1.0);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = zipf.Sample(rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 should get ~ 1/H(1000) ~ 13% of the mass; rank 1 half of that.
  EXPECT_GT(counts[0], kDraws / 10);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
  // Expected ratio rank0/rank1 = 2 for s=1.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.4);
}

TEST(ZipfTest, SingleElement) {
  Rng rng(35);
  ZipfSampler zipf(1, 1.2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, SingleSample) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(h.Percentile(50), 1000, 70);  // bucket resolution ~6%
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<int64_t>(rng.Below(100000)));
  }
  const int64_t p50 = h.Percentile(50);
  const int64_t p90 = h.Percentile(90);
  const int64_t p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 5000.0);
  EXPECT_NEAR(static_cast<double>(p90), 90000.0, 9000.0);
}

TEST(HistogramTest, MeanExact) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(5);
  b.Record(500000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 500000);
}

TEST(HistogramTest, NegativeClampedToZero) {
  Histogram h;
  h.Record(-100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  const int64_t big = int64_t{1} << 40;
  h.Record(big);
  EXPECT_EQ(h.max(), big);
  // Percentile is bucket-approximate: within ~7%.
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)),
              static_cast<double>(big), static_cast<double>(big) * 0.07);
}

TEST(HashTest, StableAcrossCalls) {
  EXPECT_EQ(KeyFromString("user:42"), KeyFromString("user:42"));
  EXPECT_NE(KeyFromString("user:42"), KeyFromString("user:43"));
}

TEST(HashTest, SpreadsShortKeys) {
  // Sequential keys should land far apart on the ring.
  std::set<uint64_t> buckets;
  for (int i = 0; i < 1000; ++i) {
    Key k = KeyFromString("k" + std::to_string(i));
    buckets.insert(k >> 56);  // top byte: 256 coarse buckets
  }
  EXPECT_GT(buckets.size(), 200u);
}

TEST(HashTest, MixHashDiffers) {
  EXPECT_NE(MixHash(1, 2), MixHash(2, 1));
  EXPECT_NE(MixHash(1, 2), MixHash(1, 3));
}

JsonValue ParseOk(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &v, &error)) << text << ": " << error;
  return v;
}

TEST(JsonTest, EscaperWritesTheObsExporterBytes) {
  std::string out = "k=";
  AppendJsonString(&out, std::string("q\"b\\n\nt\tc\x01\x1f.\xc3\xa9", 14));
  EXPECT_EQ(out, "k=\"q\\\"b\\\\n\\nt\\tc\\u0001\\u001f.\xc3\xa9\"");
}

TEST(JsonTest, EveryAsciiByteRoundTrips) {
  for (int c = 0; c < 0x80; ++c) {
    const std::string s = "<" + std::string(1, static_cast<char>(c)) + ">";
    std::string json;
    AppendJsonString(&json, s);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(ParseJson(json, &v, &error)) << c << ": " << error;
    ASSERT_EQ(v.type, JsonValue::kString) << c;
    EXPECT_EQ(v.text, s) << c;
  }
}

TEST(JsonTest, ParsesEveryValueKind) {
  const JsonValue v = ParseOk(
      " {\"a\": [1, -2.5e1, true, false, null], \"s\": \"x\\/y\","
      " \"o\": {}, \"a\": 0}\r\n");
  ASSERT_EQ(v.type, JsonValue::kObject);
  ASSERT_EQ(v.object.size(), 4u);
  const JsonValue* a = v.Find("a");  // the first of a repeated key
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->type, JsonValue::kArray);
  ASSERT_EQ(a->array.size(), 5u);
  double d = 0;
  ASSERT_TRUE(a->array[1].AsDouble(&d));
  EXPECT_EQ(d, -25.0);
  EXPECT_EQ(a->array[1].text, "-2.5e1");
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].type, JsonValue::kBool);
  EXPECT_FALSE(a->array[3].boolean);
  EXPECT_EQ(a->array[4].type, JsonValue::kNull);
  EXPECT_EQ(v.Find("s")->text, "x/y");
  EXPECT_EQ(v.Find("o")->type, JsonValue::kObject);
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_EQ(a->Find("a"), nullptr);  // not an object
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const std::string& bad : std::vector<std::string>{
           "", "{} x", "[1] [2]", "+1", "01", "1.", ".5", "-", "1e", "\"abc",
           "\"\\q\"", "\"\\u12g4\"", "\"\\u12\"", "\"a\x01\"",
           "[1 2]", "[\"common\" \"sim\"]", "{\"a\": 1 \"b\": 2}",
           "{\"a\" 1}", "[1,]", "{\"a\": 1,}", "{1: 2}", "tru", "nul", "inf",
           "0x10"}) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(ParseJson(bad, &v, &error)) << bad;
    EXPECT_NE(error.find("at offset"), std::string::npos) << bad;
  }
}

TEST(JsonTest, NestingDepthIsCappedAt64) {
  JsonValue v;
  EXPECT_TRUE(ParseJson(std::string(64, '[') + std::string(64, ']'), &v,
                        nullptr));
  EXPECT_FALSE(ParseJson(std::string(65, '[') + std::string(65, ']'), &v,
                         nullptr));
  std::string objects;
  for (int i = 0; i < 65; ++i) objects += "{\"k\":";
  objects += "0" + std::string(65, '}');
  EXPECT_FALSE(ParseJson(objects, &v, nullptr));
}

TEST(JsonTest, Uint64ReadsExactlyOrNotAtAll) {
  uint64_t u = 0;
  ASSERT_TRUE(ParseOk("18446744073709551615").AsUint64(&u));
  EXPECT_EQ(u, UINT64_MAX);
  ASSERT_TRUE(ParseOk("0").AsUint64(&u));
  EXPECT_EQ(u, 0u);
  for (const char* text : {"18446744073709551616", "18446744073709551617",
                           "99999999999999999999", "-1", "1.0", "1e3"}) {
    const JsonValue v = ParseOk(text);
    EXPECT_FALSE(v.AsUint64(&u)) << text;
    double d = 0;
    EXPECT_TRUE(v.AsDouble(&d)) << text;
  }
  EXPECT_FALSE(ParseOk("\"7\"").AsUint64(&u));
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(ParseOk("\"\\u00e9\"").text, "\xc3\xa9");  // é
  EXPECT_EQ(ParseOk("\"\\u20AC\"").text, "\xe2\x82\xac");
  EXPECT_EQ(ParseOk("\"\\u0041\\u0000\"").text, std::string("A\0", 2));
  EXPECT_EQ(ParseOk("\"\xc3\xa9\"").text, "\xc3\xa9");  // raw UTF-8 kept
}

}  // namespace
}  // namespace scatter
