#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "common/strings.h"
#include "common/varint.h"
#include "index/entry.h"
#include "index/key_twig.h"
#include "index/keys.h"
#include "query/parser.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"
#include "xml/tokenizer.h"

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

// --- Differential: the front-cached walk against a plain reference ---------

/// One key's postings as the reference extractor builds them.
struct RefEntry {
  std::vector<xml::NodeId> ids;
  std::set<std::string> paths;
};

/// The key(n) extraction written out plainly: keys.h's encodings,
/// TokenizeWords for words, and full path strings per occurrence.
std::map<std::string, RefEntry> ReferenceExtract(const xml::Document& doc,
                                                 bool include_words) {
  std::map<std::string, RefEntry> out;
  std::vector<std::string> element_paths(doc.nodes().size());
  const auto add = [&out](const std::string& key, const xml::NodeId& id,
                          const std::string& parent_path) {
    const std::string path = parent_path + "/" + PathComponent(key);
    RefEntry& entry = out[key];
    entry.ids.push_back(id);
    entry.paths.insert(path);
    return path;
  };
  for (const xml::Node& node : doc.nodes()) {
    const std::string parent_path = node.parent() == xml::kNoParent
                                        ? std::string()
                                        : element_paths[node.parent()];
    const std::string label(doc.label(node));
    const std::string value(doc.value(node));
    switch (node.kind()) {
      case xml::NodeKind::kElement:
        element_paths[node.index()] =
            add(ElementKey(label), node.id(), parent_path);
        break;
      case xml::NodeKind::kAttribute: {
        const std::string name_path =
            add(AttributeNameKey(label), node.id(), parent_path);
        add(AttributeValueKey(label, value), node.id(), parent_path);
        if (!include_words) break;
        for (const std::string& word : xml::TokenizeWords(value)) {
          add(WordKey(word), node.id(), name_path);
        }
        break;
      }
      case xml::NodeKind::kText:
        if (!include_words) break;
        for (const std::string& word : xml::TokenizeWords(value)) {
          add(WordKey(word), node.id(), parent_path);
        }
        break;
    }
  }
  for (auto& [key, entry] : out) {
    std::sort(entry.ids.begin(), entry.ids.end());
    entry.ids.erase(std::unique(entry.ids.begin(), entry.ids.end()),
                    entry.ids.end());
  }
  return out;
}

/// Extracts `doc` both ways and compares them entry by entry.
void ExpectMatchesReference(const xml::Document& doc, bool include_words) {
  ExtractOptions options;
  options.include_words = include_words;
  const DocIndex index = ExtractDocIndex(doc, options);
  const std::map<std::string, RefEntry> reference =
      ReferenceExtract(doc, include_words);
  ASSERT_EQ(index.size(), reference.size()) << doc.uri();
  auto ref = reference.begin();
  for (const DocIndex::Entry& entry : index.entries()) {
    ASSERT_EQ(index.key(entry), ref->first) << doc.uri();
    EXPECT_EQ(index.IdVector(entry), ref->second.ids) << ref->first;
    EXPECT_EQ(index.PathVector(entry),
              std::vector<std::string>(ref->second.paths.begin(),
                                       ref->second.paths.end()))
        << ref->first;
    ++ref;
  }
}

xml::Document XmarkDoc(bool split, int number) {
  xmark::GeneratorConfig config;
  config.num_documents = 4;
  config.entities_per_document = split ? 40 : 120;
  config.split_sections = split;
  const xmark::GeneratedDocument generated =
      xmark::XmarkGenerator(config).Generate(number);
  auto doc = xml::ParseDocument(generated.uri, generated.text);
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

// Attribute values holding '/', '%' and repeated words; one word under
// many parents; mixed case, digits, punctuation and bytes >= 0x80.
const char* kAwkward =
    "<site region=\"Europe/West 100% west WEST\">"
    "<item id=\"a/b%c\" ref=\"a/b%c\"><name>Lion lion LION</name>"
    "<note>lion</note><text>The lion, the Lion; l1on 1854-1854.</text>"
    "</item>"
    "<item id=\"x%2Fy\"><name>Caf\xC3\xA9 na\xC3\xAFve \xC3\x9C"
    "ber</name><deep><deeper><name>LiOn</name></deeper></deep></item>"
    "</site>";

TEST(ExtractDifferentialTest, FullSiteDocument) {
  const xml::Document doc = XmarkDoc(/*split=*/false, 0);
  ExpectMatchesReference(doc, true);
  ExpectMatchesReference(doc, false);
}

TEST(ExtractDifferentialTest, Fragment) {
  const xml::Document doc = XmarkDoc(/*split=*/true, 1);
  ExpectMatchesReference(doc, true);
  ExpectMatchesReference(doc, false);
}

TEST(ExtractDifferentialTest, EscapedAttributesRepeatsAndMixedCase) {
  const xml::Document doc = Doc(kAwkward);
  ExpectMatchesReference(doc, true);
  ExpectMatchesReference(doc, false);
  const DocIndex index = ExtractDocIndex(doc);
  // "lion" in every case, in four text nodes under four parents, is one
  // entry.
  const DocIndex::Entry* lion = index.Find("wlion");
  ASSERT_NE(lion, nullptr);
  EXPECT_EQ(lion->path_count, 4u);
  EXPECT_EQ(lion->id_count, 4u);
  EXPECT_FALSE(index.Contains("wLion"));
  EXPECT_EQ(index.PathVector(*index.Find("aid a/b%c")),
            (std::vector<std::string>{"/esite/eitem/aid a%2Fb%25c"}));
}

TEST(ExtractDifferentialTest, BackToBackDocumentsResetTheCache) {
  // One thread, documents of different shapes and sizes in turn: no key,
  // entry or path of one may leak into the next.  `wordy` holds far more
  // distinct words, attribute values and paths per node than the cache
  // sizes its tables for, so every table grows mid-document.
  std::string wordy = "<r><p>";
  for (int i = 0; i < 3000; ++i) wordy += StrFormat(" Word%d", i);
  wordy += "</p>";
  for (int i = 0; i < 600; ++i) {
    wordy += StrFormat("<e k=\"v%d\">t%d</e>", i, i % 7);
  }
  wordy += "</r>";
  const xml::Document full = XmarkDoc(/*split=*/false, 2);
  const xml::Document fragment = XmarkDoc(/*split=*/true, 3);
  const xml::Document awkward = Doc(kAwkward);
  const xml::Document small = Doc(kDelacroix);
  const xml::Document many = Doc(wordy);
  for (const xml::Document* doc : {&full, &small, &fragment, &awkward,
                                   &many, &full, &awkward, &small, &many}) {
    ExpectMatchesReference(*doc, true);
    ExpectMatchesReference(*doc, false);
  }
}

// --- One ASCII word alphabet ----------------------------------------------

TEST(WordAlphabetTest, MatchesTheCLocale) {
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    EXPECT_EQ(xml::IsWordByte(ch), std::isalnum(c) != 0) << c;
    EXPECT_EQ(xml::LowerAscii(ch), static_cast<char>(std::tolower(c))) << c;
  }
}

TEST(WordAlphabetTest, ExtractionTokenizerAndQueryAgree) {
  const std::string text =
      "MiXeD CASE 42Answers, punct-uated! Caf\xC3\xA9 \xFFz\x80Q";
  const DocIndex index = ExtractDocIndex(Doc("<p>" + text + "</p>"));
  std::set<std::string> extracted;
  for (const DocIndex::Entry& entry : index.entries()) {
    if (index.key(entry)[0] == kWordPrefix) {
      extracted.insert(std::string(index.key(entry).substr(1)));
    }
  }
  const std::vector<std::string> words = xml::TokenizeWords(text);
  EXPECT_EQ(extracted, std::set<std::string>(words.begin(), words.end()));
  EXPECT_EQ(extracted,
            (std::set<std::string>{"mixed", "case", "42answers", "punct",
                                   "uated", "caf", "z", "q"}));
  for (const std::string& word : words) {
    EXPECT_EQ(xml::NormalizeWord(word), word);
  }
  EXPECT_EQ(xml::NormalizeWord("42Answers!"), "42answers");
  EXPECT_EQ(xml::NormalizeWord("\xC3\xA9Q"), "q");
  // A contains() look-up on the original spelling asks for the key the
  // extraction stored.
  auto query = query::ParseQuery("//p~'42ANSWERS'");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const KeyTwig twig = BuildKeyTwig(query.value().patterns()[0]);
  ASSERT_EQ(twig.keys.size(), 2u);
  EXPECT_EQ(twig.keys[1], "w42answers");
  EXPECT_TRUE(index.Contains(twig.keys[1]));
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
