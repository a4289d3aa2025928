// Tests for the strict JSON reader and string writer (wt/common/json.h):
// RFC 8259 acceptance, strictness rejections, DOM accessors, the
// Quote -> ParseJson round trip every emitter relies on, and the
// Parse(Serialize(v)) == v round trip that scenario hashing relies on.

#include "wt/common/json.h"

#include <string>

#include "gtest/gtest.h"

namespace wt {
namespace json {
namespace {

Result<JsonValue> P(const std::string& text) { return ParseJson(text); }

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(P("null")->is_null());
  EXPECT_TRUE(P("true")->AsBool());
  EXPECT_FALSE(P("false")->AsBool());
  EXPECT_EQ(P("42")->AsInt(), 42);
  EXPECT_EQ(P("-7")->AsInt(), -7);
  EXPECT_DOUBLE_EQ(P("2.5")->AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(P("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(P("\"hi\"")->AsString(), "hi");
}

TEST(JsonReader, IntegerVsDouble) {
  auto i = P("10");
  ASSERT_TRUE(i.ok());
  EXPECT_TRUE(i->is_int());
  EXPECT_DOUBLE_EQ(i->AsDouble(), 10.0);  // ints read back as double too
  auto d = P("10.0");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->is_number());
  EXPECT_FALSE(d->is_int());
  // Integer syntax beyond int64 range degrades to double, not an error.
  auto big = P("99999999999999999999999");
  ASSERT_TRUE(big.ok());
  EXPECT_FALSE(big->is_int());
}

TEST(JsonReader, ParsesNestedStructure) {
  auto r = P(R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})");
  ASSERT_TRUE(r.ok());
  const JsonValue& v = *r;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 2u);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ(a->At(0).AsInt(), 1);
  EXPECT_EQ(a->At(2).Find("b")->AsString(), "x");
  EXPECT_TRUE(v.Find("c")->Find("d")->is_null());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonReader, PreservesKeyOrder) {
  auto r = P(R"({"zulu": 1, "alpha": 2, "mike": 3})");
  ASSERT_TRUE(r.ok());
  const std::vector<std::string>& keys = r->ObjectKeys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "zulu");
  EXPECT_EQ(keys[1], "alpha");
  EXPECT_EQ(keys[2], "mike");
}

TEST(JsonReader, StringEscapes) {
  EXPECT_EQ(P(R"("a\"b\\c\/d")")->AsString(), "a\"b\\c/d");
  EXPECT_EQ(P(R"("\t\n\r\b\f")")->AsString(), "\t\n\r\b\f");
  EXPECT_EQ(P(R"("\u0041")")->AsString(), "A");
  EXPECT_EQ(P(R"("\u00e9")")->AsString(), "\xC3\xA9");       // é
  EXPECT_EQ(P(R"("\u20ac")")->AsString(), "\xE2\x82\xAC");   // €
  EXPECT_EQ(P(R"("\ud83d\ude00")")->AsString(),
            "\xF0\x9F\x98\x80");  // surrogate pair: 😀
}

TEST(JsonReader, RejectsMalformedInput) {
  // Each entry is (input, error substring).
  const struct {
    const char* text;
    const char* want;
  } kCases[] = {
      {"", "unexpected end"},
      {"{", "object key"},
      {"[1, 2", "unterminated array"},
      {"[1, 2,]", "invalid number"},        // trailing comma
      {"{\"a\": 1,}", "object key"},        // trailing comma
      {"{'a': 1}", "object key"},           // unquoted/single-quoted key
      {"{\"a\" 1}", "expected ':'"},
      {"01", "leading zero"},
      {"1.", "digit after decimal point"},
      {"1e", "digit in exponent"},
      {"nul", "invalid literal"},
      {"\"abc", "unterminated string"},
      {"\"\\x\"", "invalid escape"},
      {"\"\\ud800\"", "unpaired high surrogate"},
      {"\"\\udc00\"", "unpaired low surrogate"},
      {"1 2", "trailing content"},
      {"{} {}", "trailing content"},
      {"// c\n1", "invalid number"},        // comments are not JSON
      {"NaN", "invalid number"},
      {"Infinity", "invalid number"},
  };
  for (const auto& c : kCases) {
    auto r = P(c.text);
    ASSERT_FALSE(r.ok()) << "accepted: " << c.text;
    EXPECT_TRUE(r.status().IsParseError()) << c.text;
    EXPECT_NE(r.status().message().find(c.want), std::string::npos)
        << c.text << " -> " << r.status().message();
  }
}

TEST(JsonReader, RejectsDuplicateKeys) {
  auto r = P(R"({"seed": 1, "seed": 2})");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate object key \"seed\""),
            std::string::npos)
      << r.status().message();
}

TEST(JsonReader, ErrorsCarryLineAndColumn) {
  auto r = P("{\n  \"a\": 1,\n  \"b\": bad\n}");
  ASSERT_FALSE(r.ok());
  // "bad" starts at line 3, column 8.
  EXPECT_NE(r.status().message().find("3:8"), std::string::npos)
      << r.status().message();
}

TEST(JsonReader, RejectsExcessiveNesting) {
  std::string deep(kMaxJsonDepth + 2, '[');
  auto r = P(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("nesting deeper"), std::string::npos);
}

TEST(JsonReader, SerializeRoundTrips) {
  const char* kDocs[] = {
      "null",
      "true",
      "-12",
      "2.5",
      R"("a\"b")",
      R"([1,[2.25,"x"],{}])",
      R"({"z":1,"a":[true,null],"m":{"k":"v"}})",
  };
  for (const char* doc : kDocs) {
    auto first = P(doc);
    ASSERT_TRUE(first.ok()) << doc;
    const std::string text = first->Serialize();
    auto second = P(text);
    ASSERT_TRUE(second.ok()) << text;
    // Canonical form is a fixed point: serialize(parse(serialize(v))) is
    // byte-identical — the property scenario hashing depends on.
    EXPECT_EQ(second->Serialize(), text) << doc;
  }
  // Key order survives the round trip.
  EXPECT_EQ(P(R"({"z": 1, "a": 2})")->Serialize(), R"({"z":1,"a":2})");
}

TEST(JsonQuote, EveryAsciiByteRoundTrips) {
  for (int b = 0; b <= 0x7f; ++b) {
    const std::string s(1, static_cast<char>(b));
    const std::string quoted = Quote(s);
    auto parsed = P(quoted);
    ASSERT_TRUE(parsed.ok()) << "byte " << b << ": " << quoted;
    EXPECT_EQ(parsed->AsString(), s) << "byte " << b;
  }
  EXPECT_EQ(Quote("a\"b\\c\n\x01"), R"("a\"b\\c\n\u0001")");
}

TEST(JsonQuote, Utf8PassesThroughUnchanged) {
  // Two-, three- and four-byte sequences.
  const std::string s = "caf\xc3\xa9 \xe6\xb0\xb4 \xf0\x9f\x8c\xac";
  EXPECT_EQ(Quote(s), "\"" + s + "\"");
  auto parsed = P(Quote(s));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), s);
}

TEST(JsonValueBuilder, BuildsDocuments) {
  JsonValue obj = JsonValue::Object();
  EXPECT_TRUE(obj.Insert("name", JsonValue::Str("e2")));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Int(1));
  arr.Append(JsonValue::Number(0.5));
  EXPECT_TRUE(obj.Insert("xs", std::move(arr)));
  EXPECT_FALSE(obj.Insert("name", JsonValue::Null()));  // duplicate
  EXPECT_EQ(obj.Serialize(), R"({"name":"e2","xs":[1,0.5]})");
}

}  // namespace
}  // namespace json
}  // namespace wt
