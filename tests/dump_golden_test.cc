// Byte-level equivalence oracle for the native index core: for every
// strategy, the serialized index a tiny deterministic corpus produces is
// pinned by a committed golden digest (tests/golden/index_dumps.txt).
// Besides the four DynamoDB builds, rows pin the SimpleDB layouts (hex
// armour, 255-value and 1 KB chunking), front-coded paths, and a 2LUPI
// build after an upsert and a delete (stamped postings and meta rows).
// Any change to key encoding, path escaping, varint codecs, item packing
// or UUID range-key streams shifts the digest and fails here — which is
// exactly what guarantees the interned hot path rewrote *how* the index
// is built, not *what* it contains.
//
// Regenerate deliberately with WEBDEX_UPDATE_GOLDEN=1 (the test then
// rewrites the file and fails, so a stale run cannot silently pass).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "engine/warehouse.h"
#include "xmark/xmark_generator.h"
#include "store_dump.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

xmark::GeneratorConfig TinyCorpus() {
  xmark::GeneratorConfig config;
  config.num_documents = 6;
  config.entities_per_document = 10;
  config.split_sections = true;
  return config;
}

/// Canonical byte stream of every index table: the deterministic
/// (table, hash, range) walk with length-prefixed fields, so no
/// separator can collide with payload bytes.
std::string DumpIndex(const cloud::KvStore& store) {
  std::string dump;
  cloud::ForEachStoredItem(store, [&dump](std::string_view table,
                                          const cloud::ItemView& item) {
    const auto append = [&dump](std::string_view s) {
      dump += StrFormat("%zu:", s.size());
      dump += s;
    };
    append(table);
    append(item.hash_key);
    append(item.range_key());
    for (const auto& [name, values] : item.attrs()) {
      append(name);
      for (const std::string_view value : values) append(value);
    }
    dump += '\n';
  });
  return dump;
}

/// One pinned build: a golden row name plus the configuration it runs.
struct DumpCase {
  std::string name;
  StrategyKind strategy;
  IndexBackend backend = IndexBackend::kDynamoDb;
  bool compress_paths = false;
  /// After the first build, upsert document 0 with new content, delete
  /// document 1, and index again.
  bool mutate = false;
};

/// Every golden row, in file order: the four DynamoDB builds first (their
/// lines predate the others and must never move), then the rest.
std::vector<DumpCase> GoldenCases() {
  std::vector<DumpCase> cases;
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    cases.push_back({index::StrategyKindName(kind), kind});
  }
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    cases.push_back({std::string("SimpleDB/") + index::StrategyKindName(kind),
                     kind, IndexBackend::kSimpleDb});
  }
  for (const StrategyKind kind : {StrategyKind::kLUP, StrategyKind::k2LUPI}) {
    cases.push_back({std::string("compressed/") +
                         index::StrategyKindName(kind),
                     kind, IndexBackend::kDynamoDb, /*compress_paths=*/true});
  }
  cases.push_back({"mutated/2LUPI", StrategyKind::k2LUPI,
                   IndexBackend::kDynamoDb, /*compress_paths=*/false,
                   /*mutate=*/true});
  return cases;
}

/// A synthetic document past SimpleDB's per-item limits: label `x` under
/// 300 distinct parents (more path values than the 255 one item holds)
/// and 400 `y` siblings (an ID list longer than one 1 KB value).
std::string WideDocument() {
  std::string xml = "<wide>";
  for (int i = 0; i < 300; ++i) xml += StrFormat("<p%d><x/></p%d>", i, i);
  for (int i = 0; i < 400; ++i) xml += "<y/>";
  return xml + "</wide>";
}

struct Built {
  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<Warehouse> warehouse;
};

/// Builds the tiny corpus index for `c` with `host_threads` extraction
/// threads.  SimpleDB builds also index WideDocument().
Built BuildIndex(const DumpCase& c, int host_threads) {
  Built built;
  built.env = std::make_unique<cloud::CloudEnv>(cloud::CloudConfig());
  WarehouseConfig config;
  config.strategy = c.strategy;
  config.backend = c.backend;
  config.extract.compress_paths = c.compress_paths;
  config.num_instances = 4;
  config.host_threads = host_threads;
  built.warehouse = std::make_unique<Warehouse>(built.env.get(), config);
  Warehouse& warehouse = *built.warehouse;
  EXPECT_TRUE(warehouse.Setup().ok());
  const auto corpus = TinyCorpus();
  xmark::XmarkGenerator generator(corpus);
  for (int i = 0; i < corpus.num_documents; ++i) {
    auto doc = generator.Generate(i);
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, std::move(doc.text)).ok());
  }
  if (c.backend == IndexBackend::kSimpleDb) {
    EXPECT_TRUE(warehouse.SubmitDocument("wide.xml", WideDocument()).ok());
  }
  EXPECT_TRUE(warehouse.RunIndexers().ok());
  if (c.mutate) {
    EXPECT_TRUE(warehouse
                    .UpsertDocument(generator.Generate(0).uri,
                                    generator.Generate(corpus.num_documents)
                                        .text)
                    .ok());
    EXPECT_TRUE(warehouse.DeleteDocument(generator.Generate(1).uri).ok());
    EXPECT_TRUE(warehouse.RunIndexers().ok());
  }
  return built;
}

std::string BuildDump(const DumpCase& c, int host_threads) {
  return DumpIndex(BuildIndex(c, host_threads).warehouse->index_store());
}

std::string BuildDump(StrategyKind strategy, int host_threads) {
  return BuildDump(DumpCase{"", strategy}, host_threads);
}

std::string GoldenPath() {
  // __FILE__ is the absolute source path under CMake, so the golden file
  // lives next to this test regardless of the build directory.
  std::string path = __FILE__;
  path = path.substr(0, path.find_last_of('/'));
  return path + "/golden/index_dumps.txt";
}

std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(GoldenPath());
  std::string strategy, digest;
  while (in >> strategy >> digest) golden[strategy] = digest;
  return golden;
}

TEST(DumpGoldenTest, SerializedIndexMatchesGoldenPerStrategy) {
  const bool update = std::getenv("WEBDEX_UPDATE_GOLDEN") != nullptr;
  const auto golden = ReadGolden();
  std::ostringstream regenerated;
  bool all_match = true;
  for (const DumpCase& c : GoldenCases()) {
    const std::string dump = BuildDump(c, /*host_threads=*/1);
    ASSERT_FALSE(dump.empty()) << c.name;
    const std::string digest =
        StrFormat("%016llx-%zu",
                  static_cast<unsigned long long>(Fnv1a64(dump)),
                  dump.size());
    regenerated << c.name << " " << digest << "\n";
    auto it = golden.find(c.name);
    if (update) continue;
    ASSERT_NE(it, golden.end())
        << c.name << " missing from " << GoldenPath()
        << " — regenerate with WEBDEX_UPDATE_GOLDEN=1";
    EXPECT_EQ(it->second, digest)
        << c.name << ": serialized index changed. If intentional, "
        << "regenerate with WEBDEX_UPDATE_GOLDEN=1 and commit.";
    all_match = all_match && it->second == digest;
  }
  if (update) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << GoldenPath();
    out << regenerated.str();
    FAIL() << "golden regenerated at " << GoldenPath()
           << " — rerun without WEBDEX_UPDATE_GOLDEN";
  }
  EXPECT_TRUE(all_match);
}

// Mutability regression (docs/MUTABILITY.md): a build with zero
// mutations stays at generation 0 — no posting carries the "~g" stamp
// attribute and the idx-meta table contributes no items — which is what
// keeps the dumps byte-identical to the committed pre-mutability goldens
// above.  If this fails, fix the stamping, never regenerate the golden.
TEST(DumpGoldenTest, ZeroMutationBuildsAreGenerationZero) {
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    const std::string dump = BuildDump(kind, /*host_threads=*/1);
    ASSERT_FALSE(dump.empty());
    // Attribute names are length-prefixed in the canonical dump, so the
    // stamp would appear exactly as "2:~g" and a meta item would lead
    // with its length-prefixed table name.
    EXPECT_EQ(dump.find("2:~g"), std::string::npos)
        << index::StrategyKindName(kind);
    EXPECT_EQ(dump.find("8:idx-meta"), std::string::npos)
        << index::StrategyKindName(kind);
  }
}

// The SimpleDB rows pin the chunked layouts only if the build actually
// hits the store's limits: a path list split at 255 values per item, and
// hex-armoured ID lists split across 1 KB values.
TEST(DumpGoldenTest, SimpleDbRowsExerciseChunking) {
  for (const StrategyKind kind : {StrategyKind::kLUP, StrategyKind::kLUI}) {
    const Built built = BuildIndex(
        DumpCase{"", kind, IndexBackend::kSimpleDb}, /*host_threads=*/1);
    uint64_t full_items = 0;
    uint64_t chunked_values = 0;
    cloud::ForEachStoredItem(
        built.warehouse->index_store(),
        [&](const std::string&, const cloud::ItemView& item) {
          const auto values = item.attrs().Find("wide.xml");
          if (!values.has_value()) return;
          if (values->size() == 255) ++full_items;
          for (const std::string_view value : *values) {
            EXPECT_LE(value.size(), 1024u);
            if (value.size() > 1000) ++chunked_values;
          }
        });
    if (kind == StrategyKind::kLUP) {
      EXPECT_GT(full_items, 0u) << "no 255-value item";
    } else {
      EXPECT_GT(chunked_values, 0u) << "no ID list split at 1 KB";
    }
  }
}

TEST(DumpGoldenTest, SerialAndParallelDumpsAreByteIdentical) {
  for (const DumpCase& c : GoldenCases()) {
    const std::string serial = BuildDump(c, /*host_threads=*/1);
    const std::string parallel = BuildDump(c, /*host_threads=*/8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel) << c.name;
  }
}

}  // namespace
}  // namespace webdex::engine
