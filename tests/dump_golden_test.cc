// Byte-level equivalence oracle for the native index core: for every
// strategy, the serialized index a tiny deterministic corpus produces is
// pinned by a committed golden digest (tests/golden/index_dumps.txt).
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

#include "cloud/deployment.h"
#include "common/strings.h"
#include "engine/warehouse.h"
#include "xmark/xmark_generator.h"

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

/// Canonical byte stream of every index table: ForEachItem's
/// deterministic (table, hash, range) order with length-prefixed fields,
/// so no separator can collide with payload bytes.
std::string DumpIndex(const cloud::KvStore& store) {
  std::string dump;
  store.ForEachItem([&dump](const std::string& table,
                            const cloud::Item& item) {
    const auto append = [&dump](const std::string& s) {
      dump += StrFormat("%zu:", s.size());
      dump += s;
    };
    append(table);
    append(item.hash_key);
    append(item.range_key);
    for (const auto& [name, values] : item.attrs) {
      append(name);
      for (const std::string& value : values) append(value);
    }
    dump += '\n';
  });
  return dump;
}

/// Builds the tiny corpus index with `host_threads` extraction threads
/// and returns the canonical dump.
std::string BuildDump(StrategyKind strategy, int host_threads) {
  auto env = std::make_unique<cloud::CloudEnv>(cloud::CloudConfig());
  WarehouseConfig config;
  config.strategy = strategy;
  config.num_instances = 4;
  config.host_threads = host_threads;
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  const auto corpus = TinyCorpus();
  xmark::XmarkGenerator generator(corpus);
  for (int i = 0; i < corpus.num_documents; ++i) {
    auto doc = generator.Generate(i);
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, std::move(doc.text)).ok());
  }
  auto report = warehouse.RunIndexers();
  EXPECT_TRUE(report.ok());
  return DumpIndex(env->dynamodb());
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
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    const std::string name = index::StrategyKindName(kind);
    const std::string dump = BuildDump(kind, /*host_threads=*/1);
    ASSERT_FALSE(dump.empty()) << name;
    const std::string digest =
        StrFormat("%016llx-%zu",
                  static_cast<unsigned long long>(cloud::Fnv1a64(dump)),
                  dump.size());
    regenerated << name << " " << digest << "\n";
    auto it = golden.find(name);
    if (update) continue;
    ASSERT_NE(it, golden.end())
        << name << " missing from " << GoldenPath()
        << " — regenerate with WEBDEX_UPDATE_GOLDEN=1";
    EXPECT_EQ(it->second, digest)
        << name << ": serialized index changed. If intentional, "
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

TEST(DumpGoldenTest, SerialAndParallelDumpsAreByteIdentical) {
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    const std::string serial = BuildDump(kind, /*host_threads=*/1);
    const std::string parallel = BuildDump(kind, /*host_threads=*/8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel) << index::StrategyKindName(kind);
  }
}

}  // namespace
}  // namespace webdex::engine
