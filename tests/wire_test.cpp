#include "service/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

namespace fairclique {
namespace {

using wire::GetBool;
using wire::GetNumber;
using wire::GetString;
using wire::JsonObject;

// ----------------------------------------------------------------- parsing

TEST(WireJsonTest, ParsesFlatObject) {
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(wire::ParseJsonObject(
      R"({"cmd":"query","graph":"g","k":3,"delta":1.5,"async":true,"cold":false})",
      &obj, &error))
      << error;
  EXPECT_EQ(GetString(obj, "cmd"), "query");
  EXPECT_EQ(GetString(obj, "graph"), "g");
  EXPECT_EQ(GetNumber(obj, "k", 0), 3.0);
  EXPECT_EQ(GetNumber(obj, "delta", 0), 1.5);
  EXPECT_TRUE(GetBool(obj, "async", false));
  EXPECT_FALSE(GetBool(obj, "cold", true));
}

TEST(WireJsonTest, ParsesEmptyObjectAndWhitespace) {
  JsonObject obj;
  std::string error;
  EXPECT_TRUE(wire::ParseJsonObject("  { }  ", &obj, &error));
  EXPECT_TRUE(obj.empty());
  EXPECT_TRUE(wire::ParseJsonObject("{ \"a\" : \"b\" }", &obj, &error));
  EXPECT_EQ(GetString(obj, "a"), "b");
}

TEST(WireJsonTest, DecodesEscapes) {
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(wire::ParseJsonObject(
      R"({"path":"a\\b","quote":"say \"hi\"","nl":"x\ny"})", &obj, &error))
      << error;
  EXPECT_EQ(GetString(obj, "path"), "a\\b");
  EXPECT_EQ(GetString(obj, "quote"), "say \"hi\"");
  EXPECT_EQ(GetString(obj, "nl"), "x\ny");
}

TEST(WireJsonTest, RejectsMalformedInput) {
  JsonObject obj;
  std::string error;
  EXPECT_FALSE(wire::ParseJsonObject("", &obj, &error));
  EXPECT_FALSE(wire::ParseJsonObject("not json", &obj, &error));
  EXPECT_FALSE(wire::ParseJsonObject("{\"a\":}", &obj, &error));
  EXPECT_FALSE(wire::ParseJsonObject("{\"a\":1", &obj, &error));
  EXPECT_FALSE(wire::ParseJsonObject("{\"a\" 1}", &obj, &error));
  EXPECT_FALSE(wire::ParseJsonObject("{a:1}", &obj, &error));
  EXPECT_FALSE(wire::ParseJsonObject("{\"a\":\"unterminated}", &obj, &error));
  EXPECT_FALSE(error.empty());
}

TEST(WireJsonTest, AcceptsOnlyFiniteJsonNumbers) {
  JsonObject obj;
  std::string error;
  // strtod takes all of these; none is a finite RFC 8259 number.
  for (const char* bad : {"inf", "-inf", "nan", "0x10", "1e999", "+1", "01",
                          ".5", "1.", "1e", "-"}) {
    const std::string line = std::string(R"({"deadline":)") + bad + "}";
    EXPECT_FALSE(wire::ParseJsonObject(line, &obj, &error)) << line;
    EXPECT_EQ(error, "bad value for 'deadline'") << line;
  }
  ASSERT_TRUE(wire::ParseJsonObject(R"({"a":1e3,"b":-0.5,"c":2.5E-3,"d":0})",
                                    &obj, &error))
      << error;
  EXPECT_EQ(GetNumber(obj, "a", 0.0), 1000.0);
  EXPECT_EQ(GetNumber(obj, "b", 0.0), -0.5);
  EXPECT_DOUBLE_EQ(GetNumber(obj, "c", 0.0), 2.5e-3);
  EXPECT_EQ(GetNumber(obj, "d", 1.0), 0.0);
}

TEST(WireJsonTest, TypedAccessorsFallBackOnWrongType) {
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(wire::ParseJsonObject(R"({"s":"x","n":5,"b":true})", &obj,
                                    &error));
  // Wrong-type and missing lookups both yield the fallback.
  EXPECT_EQ(GetString(obj, "n", "fb"), "fb");
  EXPECT_EQ(GetNumber(obj, "s", -1.0), -1.0);
  EXPECT_FALSE(GetBool(obj, "n", false));
  EXPECT_EQ(GetString(obj, "missing", "fb"), "fb");
  EXPECT_EQ(GetNumber(obj, "missing", 7.0), 7.0);
  EXPECT_TRUE(GetBool(obj, "missing", true));
}

// ------------------------------------------------------------ serialization

TEST(WireJsonTest, GetIntRejectsValuesNoIntCanHold) {
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(wire::ParseJsonObject(
      R"({"big":1e11,"neg":-1,"frac":2.5,"s":"3","ok":7})", &obj, &error))
      << error;
  // The parser refuses 1e999, so an infinite number is planted directly.
  obj["inf"].type = wire::JsonValue::Type::kNumber;
  obj["inf"].num = HUGE_VAL;
  int64_t out = 42;
  // Out of range: 1e11 would be UB through static_cast<int>(double).
  EXPECT_FALSE(wire::GetInt(obj, "big", 2, 1, 1 << 24, &out));
  EXPECT_FALSE(wire::GetInt(obj, "neg", 2, 0, 100, &out));
  EXPECT_FALSE(wire::GetInt(obj, "frac", 2, 1, 100, &out));
  EXPECT_FALSE(wire::GetInt(obj, "inf", 2, 1, wire::kMaxExactJsonInt, &out));
  EXPECT_FALSE(wire::GetInt(obj, "s", 2, 1, 100, &out));
  EXPECT_EQ(out, 42) << "a rejected value must leave the output untouched";
  // In range, including the inclusive bounds.
  EXPECT_TRUE(wire::GetInt(obj, "ok", 2, 1, 100, &out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(wire::GetInt(obj, "neg", 2, -1, 0, &out));
  EXPECT_EQ(out, -1);
  EXPECT_TRUE(wire::GetInt(obj, "big", 2, 0, wire::kMaxExactJsonInt, &out));
  EXPECT_EQ(out, int64_t{100000000000});
  // A missing key yields the fallback.
  EXPECT_TRUE(wire::GetInt(obj, "missing", 2, 1, 100, &out));
  EXPECT_EQ(out, 2);
}

TEST(WireJsonTest, EscapesControlCharacters) {
  EXPECT_EQ(wire::JsonEscape("plain"), "plain");
  EXPECT_EQ(wire::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(wire::JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(wire::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(WireJsonTest, ErrorJsonShape) {
  EXPECT_EQ(wire::ErrorJson(7, "boom"),
            "{\"ok\":false,\"id\":7,\"error\":\"boom\"}");
  // The message is escaped.
  EXPECT_EQ(wire::ErrorJson(1, "a\"b"),
            "{\"ok\":false,\"id\":1,\"error\":\"a\\\"b\"}");
}

TEST(WireJsonTest, QueryResponseJsonRoundTripsThroughParser) {
  auto result = std::make_shared<SearchResult>();
  result->clique.vertices = {3, 8, 11};
  result->clique.attr_counts[Attribute::kA] = 2;
  result->clique.attr_counts[Attribute::kB] = 1;
  QueryResponse response;
  response.result = result;
  response.prepared_hit = true;
  response.run_micros = 42;

  std::string line = wire::QueryResponseJson(5, "g", response);
  // The emitted vertices array keeps this test honest about the layout.
  EXPECT_NE(line.find("\"vertices\":[3,8,11]"), std::string::npos);
  EXPECT_NE(line.find("\"counts\":[2,1]"), std::string::npos);

  // Scalar fields parse back with the flat parser (it skips past the two
  // bracketed arrays only if they appear as values, so check via substring
  // first and then a reduced object).
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"id\":5"), std::string::npos);
  EXPECT_NE(line.find("\"graph\":\"g\""), std::string::npos);
  EXPECT_NE(line.find("\"size\":3"), std::string::npos);
  EXPECT_NE(line.find("\"prepared_hit\":true"), std::string::npos);
  EXPECT_NE(line.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(line.find("\"run_micros\":42"), std::string::npos);
}

TEST(WireJsonTest, QueryResponseJsonAppendsStopReasonAndPlanLast) {
  // External scrapers (and the CI crash-recovery smoke) pattern-match on
  // the original field order, so the newer fields must stay appended after
  // run_micros: stop_reason always, the spliced plan only when present.
  auto result = std::make_shared<SearchResult>();
  result->stats.completed = false;
  QueryResponse response;
  response.result = result;
  response.run_micros = 7;
  response.stop_reason = "deadline";

  std::string line = wire::QueryResponseJson(1, "g", response);
  EXPECT_NE(line.find("\"run_micros\":7,\"stop_reason\":\"deadline\"}"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find("\"plan\""), std::string::npos) << line;

  response.stop_reason = "";
  response.plan_json = "{\"prepare\":{}}";
  line = wire::QueryResponseJson(1, "g", response);
  EXPECT_NE(
      line.find("\"stop_reason\":\"\",\"plan\":{\"prepare\":{}}}"),
      std::string::npos)
      << line;
}

TEST(WireJsonTest, RawSplicesVerbatimWithCommaHandling) {
  wire::JsonWriter w;
  w.BeginObject()
      .Field("a", 1)
      .Key("plan")
      .Raw("{\"x\":[1,2]}")
      .Field("b", 2)
      .EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"plan\":{\"x\":[1,2]},\"b\":2}");
}

TEST(WireJsonTest, TraceNotFoundJsonIsStructured) {
  // `trace <id>` / `slowlog` misses answer with a machine-readable reason,
  // not a bare error string: evicted traces are expected operation, and
  // clients retrying with a fresh id need to tell the cases apart.
  EXPECT_EQ(wire::TraceNotFoundJson(4, 123),
            "{\"ok\":false,\"id\":4,\"error\":\"trace 123 not retained\","
            "\"trace_id\":123,\"reason\":\"not_retained\"}");
}

TEST(WireJsonTest, QueryResponseJsonErrorsSerializeAsErrorJson) {
  QueryResponse response;
  response.status = Status::Aborted("queue full");
  std::string line = wire::QueryResponseJson(9, "g", response);
  EXPECT_EQ(line.find("{\"ok\":false,\"id\":9,"), 0u);
  EXPECT_NE(line.find("queue full"), std::string::npos);
}

// ---------------------------------------------------------- token parsing

TEST(WireTokenTest, SplitListDropsEmptySegments) {
  EXPECT_TRUE(wire::SplitList("").empty());
  EXPECT_EQ(wire::SplitList("a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(wire::SplitList("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(wire::SplitList(",a,,b,"), (std::vector<std::string>{"a", "b"}));
}

TEST(WireTokenTest, ParseAttrToken) {
  Attribute attr;
  EXPECT_TRUE(wire::ParseAttrToken("a", &attr));
  EXPECT_EQ(attr, Attribute::kA);
  EXPECT_TRUE(wire::ParseAttrToken("1", &attr));
  EXPECT_EQ(attr, Attribute::kB);
  EXPECT_FALSE(wire::ParseAttrToken("c", &attr));
  EXPECT_FALSE(wire::ParseAttrToken("", &attr));
}

TEST(WireTokenTest, ParseVertexPairAcceptsOnlyFullTokens) {
  VertexId u = 0, v = 0;
  EXPECT_TRUE(wire::ParseVertexPair("0-5", '-', &u, &v));
  EXPECT_EQ(u, 0u);
  EXPECT_EQ(v, 5u);
  EXPECT_TRUE(wire::ParseVertexPair("12:34", ':', &u, &v));
  EXPECT_EQ(u, 12u);
  EXPECT_EQ(v, 34u);
  EXPECT_FALSE(wire::ParseVertexPair("-5", '-', &u, &v));
  EXPECT_FALSE(wire::ParseVertexPair("5-", '-', &u, &v));
  EXPECT_FALSE(wire::ParseVertexPair("5", '-', &u, &v));
  EXPECT_FALSE(wire::ParseVertexPair("a-b", '-', &u, &v));
  EXPECT_FALSE(wire::ParseVertexPair("1-2x", '-', &u, &v));
}

TEST(WireTokenTest, ParseVertexIdRejectsOverflow) {
  // 2^32 does not fit VertexId; silently narrowing would target vertex 0.
  std::string big = "4294967296";
  VertexId v = 7;
  EXPECT_FALSE(
      wire::ParseVertexId(big.c_str(), big.c_str() + big.size(), &v));
  std::string max_ok = "4294967295";
  EXPECT_TRUE(wire::ParseVertexId(max_ok.c_str(),
                                  max_ok.c_str() + max_ok.size(), &v));
  EXPECT_EQ(v, 0xffffffffu);
}

TEST(WireTokenTest, ParseExtraBoundNames) {
  ExtraBound extra;
  EXPECT_TRUE(wire::ParseExtraBound("", &extra));
  EXPECT_EQ(extra, ExtraBound::kNone);
  EXPECT_TRUE(wire::ParseExtraBound("none", &extra));
  EXPECT_EQ(extra, ExtraBound::kNone);
  EXPECT_TRUE(wire::ParseExtraBound("cp", &extra));
  EXPECT_EQ(extra, ExtraBound::kColorfulPath);
  EXPECT_TRUE(wire::ParseExtraBound("cd", &extra));
  EXPECT_EQ(extra, ExtraBound::kColorfulDegeneracy);
  EXPECT_TRUE(wire::ParseExtraBound("hindex", &extra));
  EXPECT_EQ(extra, ExtraBound::kHIndex);
  EXPECT_TRUE(wire::ParseExtraBound("d", &extra));
  EXPECT_EQ(extra, ExtraBound::kDegeneracy);
  EXPECT_FALSE(wire::ParseExtraBound("bogus", &extra));
}

}  // namespace
}  // namespace fairclique
