#include <gtest/gtest.h>

#include "common/strings.h"
#include "common/varint.h"
#include "index/entry.h"
#include "index/keys.h"
#include "xml/parser.h"

namespace webdex::index {
namespace {

xml::Document Doc(const std::string& text) {
  auto doc = xml::ParseDocument("delacroix.xml", text);
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

const char* kDelacroix =
    "<painting id=\"1854-1\">"
    "<name>The Lion Hunt</name>"
    "<painter><name><first>Eugene</first><last>Delacroix</last></name>"
    "</painter></painting>";

// --- key(n) ------------------------------------------------------------------

TEST(KeysTest, EncodingMatchesPaperSection5) {
  EXPECT_EQ(ElementKey("painting"), "epainting");
  EXPECT_EQ(AttributeNameKey("id"), "aid");
  EXPECT_EQ(AttributeValueKey("id", "1863-1"), "aid 1863-1");
  EXPECT_EQ(WordKey("olympia"), "wolympia");
}

TEST(KeysTest, PathComponentEscapesSlashes) {
  EXPECT_EQ(PathComponent("aid a/b%c"), "aid a%2Fb%25c");
  const auto components = SplitPath("/epainting/aid a%2Fb%25c");
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], "epainting");
  EXPECT_EQ(components[1], "aid a/b%c");
}

TEST(KeysTest, SplitPathPlain) {
  const auto components = SplitPath("/esite/eitem/ename");
  EXPECT_EQ(components,
            (std::vector<std::string>{"esite", "eitem", "ename"}));
}

// --- Extraction --------------------------------------------------------------

TEST(ExtractTest, ElementKeysWithPaths) {
  const DocIndex index = ExtractDocIndex(Doc(kDelacroix));
  const DocIndex::Entry* entry = index.Find("ename");
  ASSERT_NE(entry, nullptr);
  // Two name elements: painting/name and painting/painter/name.
  EXPECT_EQ(entry->id_count, 2u);
  EXPECT_EQ(index.PathVector(*entry),
            (std::vector<std::string>{
                "/epainting/ename", "/epainting/epainter/ename"}));
}

TEST(ExtractTest, AttributesYieldTwoKeys) {
  const DocIndex index = ExtractDocIndex(Doc(kDelacroix));
  const DocIndex::Entry* name_entry = index.Find("aid");
  const DocIndex::Entry* value_entry = index.Find("aid 1854-1");
  ASSERT_NE(name_entry, nullptr);
  ASSERT_NE(value_entry, nullptr);
  EXPECT_EQ(index.PathVector(*name_entry),
            (std::vector<std::string>{"/epainting/aid"}));
  EXPECT_EQ(index.PathVector(*value_entry),
            (std::vector<std::string>{"/epainting/aid 1854-1"}));
  // Both keys carry the same structural ID (the attribute's).
  EXPECT_EQ(index.IdVector(*name_entry), index.IdVector(*value_entry));
}

TEST(ExtractTest, WordsLowercasedWithElementPath) {
  const DocIndex index = ExtractDocIndex(Doc(kDelacroix));
  const DocIndex::Entry* entry = index.Find("wlion");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(index.PathVector(*entry),
            (std::vector<std::string>{"/epainting/ename/wlion"}));
  EXPECT_FALSE(index.Contains("wLion"));
}

TEST(ExtractTest, WordIdsAreChildrenOfTheirElement) {
  const xml::Document doc = Doc(kDelacroix);
  const DocIndex index = ExtractDocIndex(doc);
  const xml::NodeId word_id = index.ids(*index.Find("wlion"))[0];
  // The painting/name element.
  const xml::NodeId name_id = index.ids(*index.Find("ename"))[0];
  EXPECT_TRUE(name_id.IsParentOf(word_id));
}

TEST(ExtractTest, AttributeValueWordsShareAttributeId) {
  const DocIndex index = ExtractDocIndex(Doc(kDelacroix));
  // "1854-1" tokenizes into words "1854" and "1".
  const DocIndex::Entry* word_entry = index.Find("w1854");
  ASSERT_NE(word_entry, nullptr);
  EXPECT_EQ(index.IdVector(*word_entry), index.IdVector(*index.Find("aid")));
  EXPECT_EQ(index.PathVector(*word_entry),
            (std::vector<std::string>{"/epainting/aid/w1854"}));
}

TEST(ExtractTest, WithoutWordsNoWordKeys) {
  ExtractOptions options;
  options.include_words = false;
  const DocIndex index = ExtractDocIndex(Doc(kDelacroix), options);
  EXPECT_FALSE(index.Contains("wlion"));
  EXPECT_TRUE(index.Contains("ename"));
  // Valued attribute keys remain (they are not full-text keys).
  EXPECT_TRUE(index.Contains("aid 1854-1"));
}

TEST(ExtractTest, IdsSortedByPre) {
  const DocIndex index =
      ExtractDocIndex(Doc("<r><a>x</a><b/><a>y</a><a/></r>"));
  const std::vector<xml::NodeId> ids = index.IdVector(*index.Find("ea"));
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_LT(ids[0].pre, ids[1].pre);
  EXPECT_LT(ids[1].pre, ids[2].pre);
}

TEST(ExtractTest, RepeatedWordDeduplicatedPerOccurrenceSlot) {
  const DocIndex index = ExtractDocIndex(Doc("<a>go go go</a>"));
  // Three occurrences in one text node share the text node's ID, so the
  // entry holds a single ID.
  EXPECT_EQ(index.Find("wgo")->id_count, 1u);
}

TEST(ExtractTest, StatsCountKeysIdsPathBytes) {
  const DocIndex index = ExtractDocIndex(Doc(kDelacroix));
  const DocIndexStats stats = ComputeStats(index);
  EXPECT_EQ(stats.keys, index.size());
  EXPECT_GT(stats.ids, 10u);
  EXPECT_GT(stats.path_bytes, 100u);
}

// --- ID codec ----------------------------------------------------------------

TEST(IdCodecTest, RoundTrip) {
  std::vector<xml::NodeId> ids{{1, 9, 1}, {2, 3, 2}, {300, 70000, 5}};
  auto decoded = DecodeIds(EncodeIds(ids));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), ids);
}

TEST(IdCodecTest, EmptyBlob) {
  auto decoded = DecodeIds("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(IdCodecTest, TruncatedBlobFails) {
  std::vector<xml::NodeId> ids{{70000, 70000, 9}};
  std::string blob = EncodeIds(ids);
  blob.resize(blob.size() - 1);
  EXPECT_TRUE(DecodeIds(blob).status().IsCorruption());
}

TEST(IdCodecTest, ComponentAboveUint32Fails) {
  // A pre of 2^32 + 7 must not be silently truncated to 7.
  std::string blob;
  PutVarint64(&blob, (uint64_t{1} << 32) + 7);
  PutVarint64(&blob, 1);
  PutVarint64(&blob, 1);
  EXPECT_TRUE(DecodeIds(blob).status().IsCorruption());
}

TEST(IdCodecTest, CompactForSmallIds) {
  std::vector<xml::NodeId> ids{{1, 2, 3}};
  EXPECT_EQ(EncodeIds(ids).size(), 3u);  // one byte per component
}

TEST(HexArmourTest, RoundTripBinary) {
  std::string binary("\x00\x7f\xff\x10", 4);
  const std::string hex = HexArmour(binary);
  EXPECT_EQ(hex, "007fff10");
  auto back = HexDearmour(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), binary);
}

TEST(HexArmourTest, RejectsMalformed) {
  EXPECT_TRUE(HexDearmour("abc").status().IsCorruption());   // odd length
  EXPECT_TRUE(HexDearmour("zz").status().IsCorruption());    // bad digit
}

// --- Front-coded path sets (Section 8.5 extension) ---------------------------

TEST(PathCodecTest, RoundTripSortedPaths) {
  const std::vector<std::string> paths{
      "/esite/eregions/eafrica/eitem/edescription",
      "/esite/eregions/eafrica/eitem/ename",
      "/esite/eregions/easia/eitem/ename",
  };
  auto decoded = DecodePaths(EncodePaths(paths));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), paths);
}

TEST(PathCodecTest, EmptyAndSingleton) {
  EXPECT_TRUE(EncodePaths({}).empty());
  auto empty = DecodePaths("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
  auto single = DecodePaths(EncodePaths({"/ea/eb"}));
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value(), std::vector<std::string>{"/ea/eb"});
}

TEST(PathCodecTest, SharedPrefixesActuallyCompress) {
  std::vector<std::string> paths;
  for (int i = 0; i < 50; ++i) {
    paths.push_back(
        StrFormat("/esite/eregions/eitem/emailbox/email/ekey%02d", i));
  }
  size_t plain = 0;
  for (const auto& path : paths) plain += path.size();
  EXPECT_LT(EncodePaths(paths).size(), plain / 3);
}

TEST(PathCodecTest, CorruptionDetected) {
  const std::string blob = EncodePaths({"/ea/eb", "/ea/ec"});
  EXPECT_TRUE(DecodePaths(blob.substr(0, blob.size() - 1))
                  .status()
                  .IsCorruption());
  // A shared-prefix claim longer than the predecessor is rejected.
  std::string forged;
  PutVarint64(&forged, 7);  // prefix of 7 from an empty predecessor
  PutVarint64(&forged, 1);
  forged += "x";
  EXPECT_TRUE(DecodePaths(forged).status().IsCorruption());
}

TEST(PathCodecTest, HugeSuffixLengthDoesNotWrap) {
  // varint(0) varint(2^64-1) 0x00: offset + suffix wraps past zero, so a
  // naive bounds check accepts the 12-byte blob.
  std::string blob;
  PutVarint64(&blob, 0);
  PutVarint64(&blob, ~uint64_t{0});
  blob.push_back('\0');
  ASSERT_EQ(blob.size(), 12u);
  EXPECT_TRUE(DecodePaths(blob).status().IsCorruption());
}

TEST(PathCodecTest, RealExtractionRoundTrips) {
  const DocIndex index = ExtractDocIndex(Doc(kDelacroix));
  for (const auto& entry : index.entries()) {
    const std::vector<std::string> paths = index.PathVector(entry);
    auto decoded = DecodePaths(EncodePaths(paths));
    ASSERT_TRUE(decoded.ok()) << index.key(entry);
    EXPECT_EQ(decoded.value(), paths) << index.key(entry);
  }
}

}  // namespace
}  // namespace webdex::index
