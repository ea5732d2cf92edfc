#include <gtest/gtest.h>

#include <set>

#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::xmark {
namespace {

TEST(XmarkGeneratorTest, DeterministicForSameConfig) {
  GeneratorConfig config;
  config.num_documents = 10;
  XmarkGenerator a(config), b(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.Generate(i).text, b.Generate(i).text);
    EXPECT_EQ(a.Generate(i).uri, b.Generate(i).uri);
  }
}

TEST(XmarkGeneratorTest, SeedChangesContent) {
  GeneratorConfig config;
  config.num_documents = 4;
  GeneratorConfig other = config;
  other.seed = config.seed + 1;
  EXPECT_NE(XmarkGenerator(config).Generate(0).text,
            XmarkGenerator(other).Generate(0).text);
}

TEST(XmarkGeneratorTest, UrisAreUniqueAndStable) {
  GeneratorConfig config;
  config.num_documents = 30;
  XmarkGenerator generator(config);
  std::set<std::string> uris;
  for (const auto& doc : generator.GenerateAll()) {
    EXPECT_TRUE(uris.insert(doc.uri).second) << doc.uri;
  }
  EXPECT_EQ(uris.size(), 30u);
  EXPECT_EQ(generator.Generate(7).uri, "xmark-000007.xml");
}

TEST(XmarkGeneratorTest, DocumentsCarryAuctionSchema) {
  GeneratorConfig config;
  config.num_documents = 5;
  config.path_mutation_fraction = 0;
  config.optional_mutation_fraction = 0;
  XmarkGenerator generator(config);
  const auto doc = generator.Generate(0);
  for (const char* label :
       {"<site>", "<regions>", "<people>", "<open_auctions>",
        "<closed_auctions>", "<categories>", "<item ", "<person ",
        "<seller ", "<itemref "}) {
    EXPECT_NE(doc.text.find(label), std::string::npos) << label;
  }
}

TEST(XmarkGeneratorTest, PathMutationChangesStructureNotLabels) {
  GeneratorConfig plain;
  plain.num_documents = 200;
  plain.path_mutation_fraction = 0;
  plain.optional_mutation_fraction = 0;
  GeneratorConfig mutated = plain;
  mutated.path_mutation_fraction = 1.0;

  // With mutation on, item names live under description.
  const std::string mutated_text = XmarkGenerator(mutated).Generate(0).text;
  EXPECT_NE(mutated_text.find("<description><name>"), std::string::npos);
  EXPECT_EQ(XmarkGenerator(plain).Generate(0).text.find(
                "<description><name>"),
            std::string::npos);
  // No mailbox wrapper in mutated documents, yet mails may still occur.
  EXPECT_EQ(mutated_text.find("<mailbox>"), std::string::npos);
}

TEST(XmarkGeneratorTest, OptionalMutationDropsElements) {
  GeneratorConfig config;
  config.num_documents = 40;
  config.path_mutation_fraction = 0;
  config.optional_mutation_fraction = 1.0;
  config.drop_probability = 1.0;
  XmarkGenerator generator(config);
  const std::string text = generator.Generate(0).text;
  // With certain dropping, optional elements disappear entirely.
  EXPECT_EQ(text.find("<reserve>"), std::string::npos);
  EXPECT_EQ(text.find("<homepage>"), std::string::npos);
  // Compulsory structure survives.
  EXPECT_NE(text.find("<name>"), std::string::npos);
  EXPECT_NE(text.find("<seller"), std::string::npos);
}

TEST(XmarkGeneratorTest, SizeScalesWithEntityKnob) {
  GeneratorConfig small;
  small.num_documents = 4;
  small.entities_per_document = 6;
  GeneratorConfig big = small;
  big.entities_per_document = 60;
  size_t small_bytes = 0, big_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    small_bytes += XmarkGenerator(small).Generate(i).text.size();
    big_bytes += XmarkGenerator(big).Generate(i).text.size();
  }
  EXPECT_GT(big_bytes, 5 * small_bytes);
}

TEST(XmarkGeneratorTest, VocabularyExposedAndUsed) {
  const auto& vocab = XmarkGenerator::Vocabulary();
  ASSERT_GT(vocab.size(), 100u);
  EXPECT_EQ(vocab.front(), "the");
}

TEST(XmarkGeneratorTest, SplitModeProducesSingleSectionFragments) {
  GeneratorConfig config;
  config.num_documents = 60;
  config.split_sections = true;
  XmarkGenerator generator(config);
  const char* sections[] = {"<regions>", "<people>", "<open_auctions>",
                            "<closed_auctions>", "<categories>"};
  int seen[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < config.num_documents; ++i) {
    const auto doc = generator.Generate(i);
    int present = 0;
    for (int s = 0; s < 5; ++s) {
      if (doc.text.find(sections[s]) != std::string::npos) {
        ++present;
        ++seen[s];
      }
    }
    EXPECT_EQ(present, 1) << doc.uri << " must hold exactly one section";
  }
  // The common sections all occur somewhere in a 60-document corpus.
  EXPECT_GT(seen[0], 0);  // regions
  EXPECT_GT(seen[1], 0);  // people
  EXPECT_GT(seen[2], 0);  // open auctions
  EXPECT_GT(seen[3], 0);  // closed auctions
}

TEST(XmarkGeneratorTest, SplitModeStillParsesAndMutates) {
  GeneratorConfig config;
  config.num_documents = 30;
  config.split_sections = true;
  config.path_mutation_fraction = 1.0;
  XmarkGenerator generator(config);
  for (int i = 0; i < config.num_documents; ++i) {
    const auto doc = generator.Generate(i);
    ASSERT_TRUE(xml::ParseDocument(doc.uri, doc.text).ok()) << doc.uri;
    // Region fragments never carry a mailbox wrapper when path-mutated.
    EXPECT_EQ(doc.text.find("<mailbox>"), std::string::npos);
  }
}

TEST(XmarkGeneratorTest, SplitAndFullModesDiffer) {
  GeneratorConfig split;
  split.num_documents = 5;
  split.split_sections = true;
  GeneratorConfig full = split;
  full.split_sections = false;
  EXPECT_NE(XmarkGenerator(split).Generate(0).text,
            XmarkGenerator(full).Generate(0).text);
}

// --- Paintings corpus --------------------------------------------------------

TEST(PaintingsTest, Figure3DocumentsMatchPaper) {
  const auto docs = Figure3Documents();
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].uri, "delacroix.xml");
  auto parsed = xml::ParseDocument(docs[0].uri, docs[0].text);
  ASSERT_TRUE(parsed.ok());
  const xml::Document& doc = parsed.value();
  EXPECT_EQ(doc.label(doc.root()), "painting");
  EXPECT_EQ(doc.value(*doc.children(doc.root()).begin()), "1854-1");
  EXPECT_NE(docs[1].text.find("Olympia"), std::string::npos);
}

TEST(PaintingsTest, CorpusHasAnchorPaintingsAndMuseums) {
  PaintingsConfig config;
  config.num_paintings = 12;
  config.num_museums = 3;
  const auto docs = GeneratePaintings(config);
  ASSERT_EQ(docs.size(), 15u);
  EXPECT_NE(docs[0].text.find("The Lion Hunt"), std::string::npos);
  EXPECT_NE(docs[0].text.find("Delacroix"), std::string::npos);
  EXPECT_NE(docs[1].text.find("Olympia"), std::string::npos);
  EXPECT_NE(docs[12].text.find("<museum>"), std::string::npos);
  for (const auto& doc : docs) {
    EXPECT_TRUE(xml::ParseDocument(doc.uri, doc.text).ok()) << doc.uri;
  }
}

TEST(PaintingsTest, MuseumsReferencePaintingIds) {
  const auto docs = GeneratePaintings();
  // Museum 0 lists painting ids that occur in painting documents.
  const std::string& museum = docs[docs.size() - 6].text;
  EXPECT_NE(museum.find("painting id=\"1854-1\""), std::string::npos)
      << museum;
}

}  // namespace
}  // namespace webdex::xmark
