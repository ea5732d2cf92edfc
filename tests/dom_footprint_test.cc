// Pins what a parsed document costs the heap: how many allocations
// ParseDocument makes and how many bytes the finished Document holds
// (Document::heap_bytes, the figure a byte-budgeted DOM cache reads),
// for a full-site XMark document and a fragment.  Also pins how many
// allocations building that document's index items makes, and how many
// accounting a corpus in the planner's PathSummary makes.
//
// The executable links the benches' counting operator new
// (bench/alloc_counter.cc).  Sanitizer builds intercept operator new
// themselves, so there the counter is compiled out and only the byte
// bound is checked.

#include <gtest/gtest.h>

#include <cstdint>

#include "bench/alloc_counter.h"
#include "cloud/cloud_env.h"
#include "common/rng.h"
#include "index/strategy.h"
#include "index/summary.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::xml {
namespace {

constexpr uint64_t kMaxParseAllocs = 100;
constexpr size_t kMaxHeapPerSerializedByte = 3;

// Parses document 0 of `config` and checks both bounds.
void ExpectSmallFootprint(const xmark::GeneratorConfig& config) {
  const xmark::GeneratedDocument text =
      xmark::XmarkGenerator(config).Generate(0);
  const uint64_t before = bench::AllocCount();
  Result<Document> doc = ParseDocument(text.uri, text.text);
  const uint64_t allocs = bench::AllocCount() - before;
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  if (WEBDEX_BENCH_COUNT_ALLOCS) {
    EXPECT_LT(allocs, kMaxParseAllocs);
  }
  EXPECT_LE(doc.value().heap_bytes(),
            kMaxHeapPerSerializedByte * doc.value().size_bytes())
      << doc.value().nodes().size() << " nodes";
}

TEST(DomFootprintTest, FullSiteDocument) {
  xmark::GeneratorConfig config;
  config.num_documents = 60;
  config.entities_per_document = 600;
  ExpectSmallFootprint(config);
}

TEST(DomFootprintTest, FragmentDocument) {
  xmark::GeneratorConfig config;
  config.split_sections = true;
  config.num_documents = 240;
  config.entities_per_document = 40;
  ExpectSmallFootprint(config);
}

// Extraction writes each table's items into one buffer: on a full-site
// document (2LUPI, DynamoDB limits) ExtractBatches allocates a number of
// times that grows with the tables, not with its 12,296 items (30 when
// written).  Copying every item into an Item of its own took 14,905.
TEST(DomFootprintTest, ItemBuildAllocatesPerTableNotPerItem) {
  constexpr uint64_t kMaxItemBuildAllocs = 64;
  xmark::GeneratorConfig config;
  config.num_documents = 60;
  config.entities_per_document = 600;
  const xmark::GeneratedDocument text =
      xmark::XmarkGenerator(config).Generate(0);
  Result<Document> doc = ParseDocument(text.uri, text.text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const index::ExtractOptions options;
  const index::DocIndex doc_index =
      index::ExtractDocIndex(doc.value(), options);
  cloud::CloudEnv env;
  const index::IndexingStrategy strategy(index::StrategyKind::k2LUPI);
  Rng rng = Rng::ForKey(1, text.uri);
  index::ExtractStats stats;
  const uint64_t before = bench::AllocCount();
  auto batches = strategy.ExtractBatches(doc.value(), doc_index, options,
                                         env.dynamodb(), rng, &stats);
  const uint64_t allocs = bench::AllocCount() - before;
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  EXPECT_GT(stats.items, 10000u);
  if (WEBDEX_BENCH_COUNT_ALLOCS) {
    EXPECT_LE(allocs, kMaxItemBuildAllocs) << stats.items << " items";
  }
}

// PathSummary::AddDocument records each new distinct path with one push
// onto a flat list, so accounting 60 full-site documents (the `build`
// benchmark's corpus, 243,980 distinct paths) allocates only as its
// vectors grow: 41 times when written.  A vector per last key took
// 3,773 allocations per document.
TEST(DomFootprintTest, PathSummaryAllocatesPerGrowthNotPerPath) {
  constexpr uint64_t kMaxSummaryAllocs = 120;
  xmark::GeneratorConfig config;
  config.num_documents = 60;
  config.entities_per_document = 600;
  const xmark::XmarkGenerator generator(config);
  index::PathSummary summary;
  uint64_t allocs = 0;
  for (int i = 0; i < config.num_documents; ++i) {
    const index::DocIndex doc_index =
        index::ExtractDocIndex(generator.GenerateDom(i));
    const uint64_t before = bench::AllocCount();
    summary.AddDocument(doc_index);
    allocs += bench::AllocCount() - before;
  }
  EXPECT_GT(summary.distinct_paths(), 1000u);
  if (WEBDEX_BENCH_COUNT_ALLOCS) {
    EXPECT_LE(allocs, kMaxSummaryAllocs)
        << summary.distinct_paths() << " distinct paths";
  }
}

}  // namespace
}  // namespace webdex::xml
