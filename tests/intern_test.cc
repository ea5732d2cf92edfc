#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "index/entry.h"
#include "index/intern.h"
#include "index/keys.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::index {
namespace {

// --- StringInterner ----------------------------------------------------------

TEST(InternTest, InternResolveRoundTrip) {
  StringInterner interner;
  const KeyHandle a = interner.Intern("epainting");
  const KeyHandle b = interner.Intern("aid 1854-1");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Resolve(a), "epainting");
  EXPECT_EQ(interner.Resolve(b), "aid 1854-1");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternTest, SameStringSameHandle) {
  StringInterner interner;
  const KeyHandle first = interner.Intern("ename");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.Intern("ename"), first);
  }
  EXPECT_EQ(interner.size(), 1u);
}

TEST(InternTest, FindOnlyHitsInternedStrings) {
  StringInterner interner;
  EXPECT_EQ(interner.Find("missing"), kNoHandle);
  const KeyHandle h = interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), h);
  EXPECT_EQ(interner.Find("missing"), kNoHandle);
  EXPECT_EQ(interner.Find(""), kNoHandle);
}

TEST(InternTest, EmptyStringInternable) {
  StringInterner interner;
  const KeyHandle h = interner.Intern("");
  EXPECT_EQ(interner.Resolve(h), "");
  EXPECT_EQ(interner.Find(""), h);
}

// Collision-heavy fill: enough distinct keys to force several bucket-table
// growths in every shard, with adversarially similar spellings.
TEST(InternTest, CollisionHeavyFillKeepsEveryKey) {
  StringInterner interner;
  std::map<std::string, KeyHandle> expected;
  for (int i = 0; i < 50000; ++i) {
    const std::string key =
        StrFormat("ekey%07u", static_cast<unsigned>(i) * 2654435761u % 9999999u);
    const KeyHandle h = interner.Intern(key);
    auto [it, inserted] = expected.emplace(key, h);
    if (!inserted) {
      EXPECT_EQ(it->second, h) << key;
    }
  }
  EXPECT_EQ(interner.size(), expected.size());
  for (const auto& [key, handle] : expected) {
    EXPECT_EQ(interner.Find(key), handle) << key;
    EXPECT_EQ(interner.Resolve(handle), key);
  }
}

// Handle stability: views resolved early must survive arbitrary growth
// (arena chunks fill, header blocks extend, bucket tables rehash).
TEST(InternTest, HandlesAndViewsStableAcrossGrowth) {
  StringInterner interner;
  std::vector<std::pair<KeyHandle, std::string_view>> early;
  for (int i = 0; i < 64; ++i) {
    const std::string key = StrFormat("estable%d", i);
    const KeyHandle h = interner.Intern(key);
    early.emplace_back(h, interner.Resolve(h));
  }
  // ~3 MB of arena growth across every shard.
  for (int i = 0; i < 30000; ++i) {
    interner.Intern(StrFormat("w%d-%08x", i, i * 40503u));
  }
  for (int i = 0; i < 64; ++i) {
    const std::string key = StrFormat("estable%d", i);
    EXPECT_EQ(interner.Find(key), early[static_cast<size_t>(i)].first);
    // The exact view taken before growth still points at live bytes.
    EXPECT_EQ(early[static_cast<size_t>(i)].second, key);
  }
}

// Arena growth edge cases: strings larger than one arena chunk get a
// dedicated allocation, interleaved with small strings on both sides.
TEST(InternTest, OversizedStringsGetDedicatedChunks) {
  StringInterner interner;
  const std::string big_first(1 << 17, 'a');  // 128 KB > 64 KB chunk
  const KeyHandle h0 = interner.Intern(big_first);
  const KeyHandle h1 = interner.Intern("esmall");
  const std::string big_second(1 << 16, 'b');  // exactly one chunk
  const KeyHandle h2 = interner.Intern(big_second);
  const KeyHandle h3 = interner.Intern("wtiny");
  EXPECT_EQ(interner.Resolve(h0), big_first);
  EXPECT_EQ(interner.Resolve(h1), "esmall");
  EXPECT_EQ(interner.Resolve(h2), big_second);
  EXPECT_EQ(interner.Resolve(h3), "wtiny");
  const InternStats stats = interner.Stats();
  EXPECT_EQ(stats.keys, 4u);
  EXPECT_EQ(stats.bytes,
            big_first.size() + big_second.size() + 6 + 5);
}

TEST(InternTest, StatsCountLookupsAndProbes) {
  StringInterner interner;
  for (int i = 0; i < 100; ++i) {
    interner.Intern(StrFormat("e%d", i % 10));
  }
  const InternStats stats = interner.Stats();
  EXPECT_EQ(stats.keys, 10u);
  EXPECT_EQ(stats.lookups, 100u);
  uint64_t probes = 0;
  for (uint64_t n : stats.probe_len) probes += n;
  EXPECT_EQ(probes, 100u);
}

// Concurrent interning of overlapping key sets: every thread must agree
// on the handle of every key (run under TSan in sanitizer CI).
TEST(InternTest, ConcurrentInterningAgreesOnHandles) {
  StringInterner interner;
  constexpr int kThreads = 8;
  constexpr int kKeys = 4000;
  std::vector<std::vector<KeyHandle>> handles(
      kThreads, std::vector<KeyHandle>(kKeys, kNoHandle));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &interner, &handles] {
      for (int i = 0; i < kKeys; ++i) {
        // Each thread covers the whole key space from a different start,
        // so insert races and pure hits both occur.
        const int key = (i + t * (kKeys / 8)) % kKeys;
        const KeyHandle h = interner.Intern(StrFormat("eshared%d", key));
        handles[static_cast<size_t>(t)][static_cast<size_t>(key)] = h;
        // Resolve is lock-free; exercise it concurrently with inserts.
        EXPECT_EQ(interner.Resolve(h), StrFormat("eshared%d", key));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(interner.size(), static_cast<uint64_t>(kKeys));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[static_cast<size_t>(t)], handles[0]) << "thread " << t;
  }
}

// --- key(n) helpers ----------------------------------------------------------

TEST(InternTest, PrefixedKeyHelpersMatchLegacyEncodings) {
  StringInterner interner;
  std::string scratch;
  EXPECT_EQ(interner.Resolve(InternElementKey(interner, "painting", &scratch)),
            ElementKey("painting"));
  EXPECT_EQ(interner.Resolve(InternAttributeNameKey(interner, "id", &scratch)),
            AttributeNameKey("id"));
  EXPECT_EQ(interner.Resolve(
                InternAttributeValueKey(interner, "id", "1863-1", &scratch)),
            AttributeValueKey("id", "1863-1"));
}

// --- PathDict ----------------------------------------------------------------

TEST(PathDictTest, ExtendBuildsEscapedPathStrings) {
  InternCore core;
  StringInterner& keys = core.keys();
  PathDict& paths = core.paths();
  const KeyHandle site = keys.Intern("esite");
  const KeyHandle item = keys.Intern("eitem");
  std::string scratch;
  const PathHandle p1 = paths.Extend(kNoHandle, site, &scratch);
  const PathHandle p2 = paths.Extend(p1, item, &scratch);
  EXPECT_EQ(paths.Resolve(p1), "/esite");
  EXPECT_EQ(paths.Resolve(p2), "/esite/eitem");
  EXPECT_EQ(paths.Parent(p2), p1);
  EXPECT_EQ(paths.Parent(p1), kNoHandle);
  EXPECT_EQ(paths.LastKey(p2), item);
}

TEST(PathDictTest, SameEdgeSameHandle) {
  InternCore core;
  const KeyHandle site = core.keys().Intern("esite");
  const KeyHandle item = core.keys().Intern("eitem");
  std::string scratch;
  const PathHandle p1 = core.paths().Extend(kNoHandle, site, &scratch);
  EXPECT_EQ(core.paths().Extend(kNoHandle, site, &scratch), p1);
  const PathHandle p2 = core.paths().Extend(p1, item, &scratch);
  EXPECT_EQ(core.paths().Extend(p1, item, &scratch), p2);
  EXPECT_EQ(core.paths().size(), 2u);
}

TEST(PathDictTest, ComponentsEscapingRoundTrips) {
  InternCore core;
  // A key containing both escape triggers ('/' and '%').
  const KeyHandle weird = core.keys().Intern("aid a/b%c");
  const KeyHandle plain = core.keys().Intern("ename");
  std::string scratch;
  const PathHandle p = core.paths().Extend(
      core.paths().Extend(kNoHandle, plain, &scratch), weird, &scratch);
  EXPECT_EQ(core.paths().Resolve(p), "/ename/aid a%2Fb%25c");
  // SplitPath undoes the escaping back to the raw component keys.
  const auto split = SplitPath(std::string(core.paths().Resolve(p)));
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0], "ename");
  EXPECT_EQ(split[1], "aid a/b%c");
  // Components returns the raw key handles in path order.
  std::vector<KeyHandle> components;
  core.paths().Components(p, &components);
  EXPECT_EQ(components, (std::vector<KeyHandle>{plain, weird}));
}

TEST(PathDictTest, DeepChainsAndManySiblings) {
  InternCore core;
  // Deep chain.
  PathHandle parent = kNoHandle;
  std::string expected;
  std::string scratch;
  for (int depth = 0; depth < 200; ++depth) {
    const std::string label = StrFormat("ed%d", depth);
    parent = core.paths().Extend(parent, core.keys().Intern(label), &scratch);
    expected += "/" + label;
  }
  EXPECT_EQ(core.paths().Resolve(parent), expected);
  // Fan-out of siblings under one parent, forcing bucket growth.
  std::set<PathHandle> siblings;
  for (int i = 0; i < 5000; ++i) {
    siblings.insert(core.paths().Extend(
        parent, core.keys().Intern(StrFormat("ws%d", i)), &scratch));
  }
  EXPECT_EQ(siblings.size(), 5000u);
}

// Concurrent extension of overlapping chains: every thread walks the same
// chains from a different starting chain, so insert races (same parent,
// same component) and pure hits both occur, while Resolve reads parents
// other threads just published (run under TSan in sanitizer CI).
TEST(PathDictTest, ConcurrentExtendAgreesOnHandlesAndPaths) {
  InternCore core;
  constexpr int kThreads = 8;
  constexpr int kChains = 64;
  constexpr int kDepth = 24;
  std::vector<KeyHandle> labels;
  for (int d = 0; d < kDepth; ++d) {
    labels.push_back(core.keys().Intern(StrFormat("el%d", d)));
  }
  // handles[t][chain * kDepth + depth]
  std::vector<std::vector<PathHandle>> handles(
      kThreads, std::vector<PathHandle>(kChains * kDepth, kNoHandle));
  std::vector<std::vector<std::string>> resolved(
      kThreads, std::vector<std::string>(kChains * kDepth));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &core, &labels, &handles, &resolved] {
      std::string scratch;
      for (int i = 0; i < kChains; ++i) {
        const int chain = (i + t * (kChains / kThreads)) % kChains;
        // Chains c and c + 16 share a root, and c and c + 48 are the
        // same chain, so handles are shared within a thread as well.
        PathHandle parent = core.paths().Extend(
            kNoHandle, core.keys().Intern(StrFormat("eroot%d", chain % 16)),
            &scratch);
        for (int d = 0; d < kDepth; ++d) {
          parent = core.paths().Extend(
              parent, labels[static_cast<size_t>((d + chain) % kDepth)],
              &scratch);
          const size_t at = static_cast<size_t>(chain * kDepth + d);
          handles[static_cast<size_t>(t)][at] = parent;
          resolved[static_cast<size_t>(t)][at] =
              std::string(core.paths().Resolve(parent));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[static_cast<size_t>(t)], handles[0]) << "thread " << t;
    EXPECT_EQ(resolved[static_cast<size_t>(t)], resolved[0]) << "thread " << t;
  }
  // Each path string is the chain's root followed by its labels.
  for (int chain = 0; chain < kChains; ++chain) {
    std::string expected = StrFormat("/eroot%d", chain % 16);
    for (int d = 0; d < kDepth; ++d) {
      expected += StrFormat("/el%d", (d + chain) % kDepth);
      EXPECT_EQ(resolved[0][static_cast<size_t>(chain * kDepth + d)],
                expected);
    }
  }
  std::set<PathHandle> distinct;
  for (const PathHandle h : handles[0]) distinct.insert(h);
  EXPECT_EQ(core.paths().size(), 16u + distinct.size());
}

// --- Property: extraction interns exactly its emitted keys and paths ---------

TEST(InternPropertyTest, ExtractDocIndexRoundTripsAllKeysAndPaths) {
  xmark::GeneratorConfig config;
  config.num_documents = 10;
  config.entities_per_document = 12;
  xmark::XmarkGenerator generator(config);
  InternCore core;
  std::string scratch;
  for (int i = 0; i < config.num_documents; ++i) {
    const xml::Document doc = generator.GenerateDom(i);
    const DocIndex index = ExtractDocIndexInto(doc, ExtractOptions(), &core);
    ASSERT_GT(index.size(), 0u);
    std::string previous_key;
    for (const auto& entry : index.entries()) {
      const std::string key(index.key(entry));
      // Entries are sorted by resolved key string, like the old std::map.
      EXPECT_LT(previous_key, key);
      previous_key = key;
      // Every key resolves back to itself through the interner.
      const KeyHandle h = core.keys().Find(key);
      ASSERT_NE(h, kNoHandle) << key;
      EXPECT_EQ(core.keys().Resolve(h), key);
      // Every path ends with this entry's key and survives a
      // resolve -> split -> re-extend round trip.
      ASSERT_GT(entry.id_count, 0u);
      for (const std::string& path : index.PathVector(entry)) {
        const auto components = SplitPath(path);
        ASSERT_FALSE(components.empty()) << path;
        EXPECT_EQ(components.back(), key) << path;
        PathHandle rebuilt = kNoHandle;
        for (const std::string& component : components) {
          const KeyHandle ch = core.keys().Find(component);
          ASSERT_NE(ch, kNoHandle) << component;
          rebuilt = core.paths().Extend(rebuilt, ch, &scratch);
        }
        EXPECT_EQ(core.paths().Resolve(rebuilt), path);
      }
    }
  }
}

// --- Histogram::RecordN ------------------------------------------------------

TEST(HistogramRecordNTest, BulkRecordMatchesRepeatedRecord) {
  common::Histogram bulk;
  common::Histogram repeated;
  bulk.RecordN(3.0, 5);
  bulk.RecordN(100.0, 2);
  bulk.RecordN(42.0, 0);  // no-op
  for (int i = 0; i < 5; ++i) repeated.Record(3.0);
  for (int i = 0; i < 2; ++i) repeated.Record(100.0);
  EXPECT_EQ(bulk.count(), repeated.count());
  EXPECT_EQ(bulk.sum(), repeated.sum());
  EXPECT_EQ(bulk.min(), repeated.min());
  EXPECT_EQ(bulk.max(), repeated.max());
  for (int i = 0; i < common::Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(bulk.bucket_count(i), repeated.bucket_count(i)) << i;
  }
}

// --- Metric publication ------------------------------------------------------

TEST(InternMetricsTest, PublishMirrorsCoreIntoRegistry) {
  InternCore core;
  std::string scratch;
  core.paths().Extend(kNoHandle, core.keys().Intern("esite"), &scratch);
  core.keys().Intern("ename");
  common::MetricRegistry registry;
  PublishInternMetrics(&registry, core);
  EXPECT_EQ(registry.GaugeValue("index.intern.keys"), 2.0);
  EXPECT_EQ(registry.GaugeValue("index.intern.paths"), 1.0);
  EXPECT_GT(registry.GaugeValue("index.intern.bytes"), 0.0);
  EXPECT_GT(registry.GaugeValue("index.intern.path_bytes"), 0.0);
  const common::Histogram* probes =
      registry.FindHistogram("index.intern.probe_len");
  ASSERT_NE(probes, nullptr);
  EXPECT_EQ(probes->count(), 2u);  // two Intern lookups
  // Republishing rebuilds rather than double-counts.
  PublishInternMetrics(&registry, core);
  EXPECT_EQ(registry.FindHistogram("index.intern.probe_len")->count(), 2u);
}

}  // namespace
}  // namespace webdex::index
