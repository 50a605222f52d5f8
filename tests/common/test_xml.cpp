/// \file test_xml.cpp
/// \brief Unit tests for the XML DOM parser (common/xml).

#include "common/xml.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace cloudwf {
namespace {

TEST(Xml, ParsesSimpleElement) {
  const XmlElement root = parse_xml("<root/>");
  EXPECT_EQ(root.name(), "root");
  EXPECT_TRUE(root.children().empty());
}

TEST(Xml, ParsesAttributes) {
  const XmlElement root = parse_xml(R"(<job id="ID1" runtime='13.5'/>)");
  EXPECT_EQ(root.attribute("id"), "ID1");
  EXPECT_EQ(root.attribute("runtime"), "13.5");
  EXPECT_EQ(root.attribute_or("missing", "x"), "x");
  EXPECT_EQ(root.find_attribute("missing"), nullptr);
  EXPECT_THROW((void)root.attribute("missing"), InvalidArgument);
}

TEST(Xml, ParsesNestedChildren) {
  const XmlElement root = parse_xml(R"(<a><b k="1"/><c><d/></c><b k="2"/></a>)");
  ASSERT_EQ(root.children().size(), 3u);
  const auto bs = root.children_named("b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(bs[1]->attribute("k"), "2");
  ASSERT_NE(root.first_child("c"), nullptr);
  EXPECT_EQ(root.first_child("c")->children().size(), 1u);
  EXPECT_EQ(root.first_child("zzz"), nullptr);
}

TEST(Xml, ParsesTextAndEntities) {
  const XmlElement root = parse_xml("<t>a &amp; b &lt;c&gt; &quot;d&quot; &#65;</t>");
  EXPECT_EQ(root.text(), "a & b <c> \"d\" A");
}

TEST(Xml, ParsesCdata) {
  const XmlElement root = parse_xml("<t><![CDATA[<raw> & stuff]]></t>");
  EXPECT_EQ(root.text(), "<raw> & stuff");
}

TEST(Xml, SkipsDeclarationAndComments) {
  const XmlElement root = parse_xml(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!-- header comment -->\n<root><!-- inner --><x/></root>\n<!-- trailer -->");
  EXPECT_EQ(root.name(), "root");
  EXPECT_EQ(root.children().size(), 1u);
}

TEST(Xml, LocalNameStripsNamespacePrefix) {
  const XmlElement root = parse_xml("<pg:adag xmlns:pg=\"http://x\"><pg:job/></pg:adag>");
  EXPECT_EQ(root.local_name(), "adag");
  EXPECT_EQ(root.children_named("job").size(), 1u);
}

TEST(Xml, RejectsMismatchedTags) {
  EXPECT_THROW((void)parse_xml("<a><b></a></b>"), InvalidArgument);
}

TEST(Xml, RejectsUnterminatedInput) {
  EXPECT_THROW((void)parse_xml("<a><b/>"), InvalidArgument);
  EXPECT_THROW((void)parse_xml("<a attr=\"x/>"), InvalidArgument);
  EXPECT_THROW((void)parse_xml("<!-- no end"), InvalidArgument);
}

TEST(Xml, RejectsTrailingContent) {
  EXPECT_THROW((void)parse_xml("<a/><b/>"), InvalidArgument);
}

TEST(Xml, ErrorsCarryOffset) {
  try {
    (void)parse_xml("<a><b></wrong></a>");
    FAIL() << "expected parse error";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("offset"), std::string::npos);
  }
}

TEST(Xml, DumpRoundTrips) {
  const std::string text =
      R"(<adag name="wf"><job id="a" cmd="x &amp; y"><uses file="f" size="10"/></job></adag>)";
  const XmlElement once = parse_xml(text);
  const XmlElement twice = parse_xml(once.dump());
  EXPECT_EQ(once.dump(), twice.dump());
  EXPECT_EQ(twice.first_child("job")->attribute("cmd"), "x & y");
}

TEST(Xml, BuilderProducesValidDocument) {
  XmlElement root("adag");
  root.add_attribute("name", "demo");
  XmlElement& job = root.add_child("job");
  job.add_attribute("id", "j<1>");
  const XmlElement back = parse_xml(root.dump());
  EXPECT_EQ(back.first_child("job")->attribute("id"), "j<1>");
}

/// \p depth <a> elements nested inside each other.
std::string nested_elements(std::size_t depth) {
  std::string text;
  for (std::size_t level = 0; level < depth; ++level) text += "<a>";
  for (std::size_t level = 0; level < depth; ++level) text += "</a>";
  return text;
}

TEST(Xml, AcceptsNestingUpToTheLimit) {
  const XmlElement root = parse_xml(nested_elements(xml_max_nesting));
  const XmlElement* inner = &root;
  std::size_t levels = 1;
  while (const XmlElement* child = inner->first_child("a")) {
    inner = child;
    ++levels;
  }
  EXPECT_EQ(levels, xml_max_nesting);
}

TEST(Xml, RejectsNestingBeyondTheLimit) {
  try {
    (void)parse_xml(nested_elements(xml_max_nesting + 1));
    FAIL() << "expected parse error";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "parse_xml: nesting too deep at offset 768");
  }
}

TEST(Xml, RejectsMillionDeepDocumentWithoutCrashing) {
  try {
    (void)parse_xml(nested_elements(1'000'000));
    FAIL() << "expected parse error";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "parse_xml: nesting too deep at offset 768");
  }
}

}  // namespace
}  // namespace cloudwf
