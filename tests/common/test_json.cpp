/// \file test_json.cpp
/// \brief Unit tests for the JSON parser/serializer (common/json).

#include "common/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace cloudwf {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructure) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  EXPECT_EQ(doc.as_object().size(), 2u);
  const auto& arr = doc.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_TRUE(arr[2].at("b").as_bool());
  EXPECT_TRUE(doc.at("c").is_null());
}

TEST(Json, StringEscapes) {
  const Json doc = Json::parse(R"("line\nquote\"back\\slash\ttab")");
  EXPECT_EQ(doc.as_string(), "line\nquote\"back\\slash\ttab");
}

TEST(Json, UnicodeEscape) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");  // é in UTF-8
}

TEST(Json, DumpParseRoundTrip) {
  const std::string text =
      R"({"name":"wf","tasks":[{"w":1.5,"ok":true},{"w":2,"ok":false}],"deep":{"x":null}})";
  const Json doc = Json::parse(text);
  const Json again = Json::parse(doc.dump());
  EXPECT_EQ(doc.dump(), again.dump());
}

TEST(Json, PrettyPrintIsReparseable) {
  const Json doc = Json::parse(R"({"a":[1,2],"b":{"c":"d"}})");
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).dump(), doc.dump());
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json::Object obj;
  obj["zebra"] = 1;
  obj["alpha"] = 2;
  const std::string out = Json(std::move(obj)).dump();
  EXPECT_LT(out.find("zebra"), out.find("alpha"));
}

TEST(Json, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(1e6).dump(), "1000000");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, TypeMismatchThrows) {
  const Json doc = Json::parse("[1]");
  EXPECT_THROW((void)doc.as_object(), InvalidArgument);
  EXPECT_THROW((void)doc.as_string(), InvalidArgument);
  EXPECT_THROW((void)doc.at("x"), InvalidArgument);
}

TEST(Json, MissingKeyThrows) {
  const Json doc = Json::parse(R"({"a":1})");
  EXPECT_THROW((void)doc.at("b"), InvalidArgument);
}

TEST(Json, ParseErrorsCarryOffset) {
  try {
    (void)Json::parse("{\"a\": }");
    FAIL() << "expected parse error";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW((void)Json::parse("1 2"), InvalidArgument);
  EXPECT_THROW((void)Json::parse("{} extra"), InvalidArgument);
}

TEST(Json, RejectsUnterminatedString) {
  EXPECT_THROW((void)Json::parse("\"abc"), InvalidArgument);
}

TEST(Json, FindReturnsNullForMissing) {
  const Json doc = Json::parse(R"({"a":1})");
  EXPECT_EQ(doc.as_object().find("b"), nullptr);
  EXPECT_NE(doc.as_object().find("a"), nullptr);
}

/// \p depth arrays nested inside each other around a single 0.
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + "0" + std::string(depth, ']');
}

TEST(Json, AcceptsNestingUpToTheLimit) {
  const Json doc = Json::parse(nested_arrays(Json::max_nesting));
  const Json* inner = &doc;
  for (std::size_t level = 0; level < Json::max_nesting; ++level) inner = &inner->as_array()[0];
  EXPECT_EQ(inner->as_number(), 0.0);
}

TEST(Json, RejectsNestingBeyondTheLimit) {
  try {
    (void)Json::parse(nested_arrays(Json::max_nesting + 1));
    FAIL() << "expected parse error";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "Json::parse: nesting too deep at offset 256");
  }
  std::string objects;
  for (std::size_t level = 0; level <= Json::max_nesting; ++level) objects += R"({"k": )";
  EXPECT_THROW((void)Json::parse(objects), InvalidArgument);
}

TEST(Json, RejectsMillionDeepDocumentWithoutCrashing) {
  try {
    (void)Json::parse(std::string(1'000'000, '[') + std::string(1'000'000, ']'));
    FAIL() << "expected parse error";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "Json::parse: nesting too deep at offset 256");
  }
}

}  // namespace
}  // namespace cloudwf
