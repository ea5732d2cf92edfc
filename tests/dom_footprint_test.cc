// Pins what a parsed document costs the heap: how many allocations
// ParseDocument makes and how many bytes the finished Document holds
// (Document::heap_bytes, the figure a byte-budgeted DOM cache reads),
// for a full-site XMark document and a fragment.  Also pins how many
// allocations building that document's index items makes, and how many
// accounting a corpus in the planner's PathSummary makes.
//
// The executable replaces the global operator new with a counting one.
// Sanitizer builds intercept operator new themselves, so there the
// counter is compiled out and only the byte bound is checked.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cloud/cloud_env.h"
#include "common/rng.h"
#include "index/strategy.h"
#include "index/summary.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WEBDEX_FOOTPRINT_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WEBDEX_FOOTPRINT_COUNT_ALLOCS 0
#else
#define WEBDEX_FOOTPRINT_COUNT_ALLOCS 1
#endif
#else
#define WEBDEX_FOOTPRINT_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

#if WEBDEX_FOOTPRINT_COUNT_ALLOCS
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p,
                     std::max(static_cast<std::size_t>(align), sizeof(void*)),
                     size ? size : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // WEBDEX_FOOTPRINT_COUNT_ALLOCS

namespace webdex::xml {
namespace {

constexpr uint64_t kMaxParseAllocs = 100;
constexpr size_t kMaxHeapPerSerializedByte = 3;

// Parses document 0 of `config` and checks both bounds.
void ExpectSmallFootprint(const xmark::GeneratorConfig& config) {
  const xmark::GeneratedDocument text =
      xmark::XmarkGenerator(config).Generate(0);
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  Result<Document> doc = ParseDocument(text.uri, text.text);
  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  if (WEBDEX_FOOTPRINT_COUNT_ALLOCS) {
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
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto batches = strategy.ExtractBatches(doc.value(), doc_index, options,
                                         env.dynamodb(), rng, &stats);
  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  EXPECT_GT(stats.items, 10000u);
  if (WEBDEX_FOOTPRINT_COUNT_ALLOCS) {
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
    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    summary.AddDocument(doc_index);
    allocs += g_allocs.load(std::memory_order_relaxed) - before;
  }
  EXPECT_GT(summary.distinct_paths(), 1000u);
  if (WEBDEX_FOOTPRINT_COUNT_ALLOCS) {
    EXPECT_LE(allocs, kMaxSummaryAllocs)
        << summary.distinct_paths() << " distinct paths";
  }
}

}  // namespace
}  // namespace webdex::xml
