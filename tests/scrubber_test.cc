// Self-healing index contract (docs/FAULTS.md): a scrub pass walks a
// strategy's index tables against the document bucket with *billed*
// reads, detects the garbage faults leave behind — half-written postings
// from a mid-BatchPut crash, missing postings from a dead-lettered task,
// orphans of deleted documents — and, with repair on, converges the
// tables byte-identically to a fault-free build via idempotent
// re-extraction.  Dead-lettered tasks can alternatively be re-driven
// through Warehouse::DrainDeadLetters and converge the same way.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "engine/warehouse.h"
#include "index/generation.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

std::vector<xmark::GeneratedDocument> Corpus() {
  auto docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = 8;
  config.entities_per_document = 6;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  return docs;
}

const char* kQuery = "//painting[/name~'Lion', //painter/name/last:val]";

/// Full byte-level fingerprint of the index tables (keys and attribute
/// payloads), via the free host-side walk.
std::vector<std::string> Dump(Warehouse& warehouse) {
  std::vector<std::string> dump;
  warehouse.index_store().ForEachItem(
      [&dump](const std::string& table, const cloud::Item& item) {
        std::string line = table + "|" + item.hash_key + "|" + item.range_key;
        for (const auto& [name, values] : item.attrs) {
          line += "|" + name + "=";
          for (const auto& value : values) line += value + ",";
        }
        dump.push_back(std::move(line));
      });
  return dump;
}

struct Deployment {
  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<Warehouse> warehouse;
  IndexingRunReport report;
};

Deployment Deploy(StrategyKind strategy,
                  const WarehouseConfig& base = WarehouseConfig()) {
  Deployment d;
  d.env = std::make_unique<cloud::CloudEnv>();
  WarehouseConfig config = base;
  config.strategy = strategy;
  config.num_instances = 2;
  d.warehouse = std::make_unique<Warehouse>(d.env.get(), config);
  EXPECT_TRUE(d.warehouse->Setup().ok());
  for (const auto& doc : Corpus()) {
    EXPECT_TRUE(d.warehouse->SubmitDocument(doc.uri, doc.text).ok());
  }
  auto report = d.warehouse->RunIndexers();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) d.report = report.value();
  return d;
}

/// A deployment whose first mid-BatchPut page boundary crashes the
/// instance, with max_deliveries == 1 so the redelivered task is
/// dead-lettered instead of retried: the run ends with a durably
/// half-written index and the poison task parked on the DLQ.
Deployment DeployHalfWritten(StrategyKind strategy) {
  auto crashes = std::make_shared<int>(1);
  WarehouseConfig config;
  config.max_deliveries = 1;
  config.crash_plan = [crashes](cloud::CrashPoint point, int,
                                const std::string&) {
    if (point != cloud::CrashPoint::kBetweenBatchPutPages) return false;
    if (*crashes > 0) {
      --*crashes;
      return true;
    }
    return false;
  };
  Deployment d = Deploy(strategy, config);
  EXPECT_EQ(*crashes, 0) << "corpus no longer produces multi-page uploads";
  return d;
}

// The acceptance scenario: forced half-written index -> report-only
// scrub detects it without touching anything -> repair scrub converges
// the tables byte-identically to the fault-free build, for a price.
TEST(ScrubberTest, HalfWrittenIndexIsDetectedAndRepaired) {
  Deployment clean = Deploy(StrategyKind::k2LUPI);
  const std::vector<std::string> clean_dump = Dump(*clean.warehouse);

  Deployment hurt = DeployHalfWritten(StrategyKind::k2LUPI);
  ASSERT_GE(hurt.report.dead_lettered, 1u);
  const std::vector<std::string> hurt_dump = Dump(*hurt.warehouse);
  ASSERT_NE(hurt_dump, clean_dump);

  // Report-only pass: finds the damage, changes nothing.
  auto audit = hurt.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_FALSE(audit.value().Clean());
  EXPECT_GE(audit.value().missing_uris.size() +
                audit.value().partial_uris.size(),
            1u);
  EXPECT_TRUE(audit.value().orphaned_uris.empty());
  EXPECT_EQ(audit.value().repaired_uris, 0u);
  EXPECT_EQ(audit.value().items_put, 0u);
  EXPECT_EQ(audit.value().items_deleted, 0u);
  EXPECT_EQ(audit.value().documents_checked, Corpus().size());
  EXPECT_GT(audit.value().items_scanned, 0u);
  EXPECT_EQ(Dump(*hurt.warehouse), hurt_dump);
  EXPECT_EQ(hurt.env->meter().usage().scrub_repaired, 0u);

  // Repair pass: byte-identical convergence, billed.
  const double before = hurt.env->meter().ComputeBill().total();
  auto repair = hurt.warehouse->Scrub(/*repair=*/true);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_GE(repair.value().repaired_uris, 1u);
  EXPECT_GT(repair.value().items_put, 0u);
  EXPECT_EQ(Dump(*hurt.warehouse), clean_dump);
  EXPECT_GT(hurt.env->meter().ComputeBill().total(), before);
  EXPECT_GE(hurt.env->meter().usage().scrub_repaired, 1u);

  // A second pass certifies the index clean, and the repaired index
  // answers exactly like the fault-free one.
  auto second = hurt.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().Clean());
  auto want = clean.warehouse->ExecuteQuery(kQuery);
  auto got = hurt.warehouse->ExecuteQuery(kQuery);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(want.value().result.rows, got.value().result.rows);
  EXPECT_FALSE(got.value().degraded);
}

// A document whose postings were all lost (here: deleted through the
// billed API, as a dead-lettered extraction would leave them) is flagged
// missing and restored byte-identically.
TEST(ScrubberTest, MissingPostingsAreRestored) {
  Deployment d = Deploy(StrategyKind::kLUP);
  const std::vector<std::string> clean_dump = Dump(*d.warehouse);
  const std::string victim = d.warehouse->document_uris().front();

  struct Key {
    std::string table, hash, range;
  };
  std::vector<Key> keys;
  d.warehouse->index_store().ForEachItem(
      [&keys, &victim](const std::string& table, const cloud::Item& item) {
        if (item.attrs.size() == 1 && item.attrs.begin()->first == victim) {
          keys.push_back({table, item.hash_key, item.range_key});
        }
      });
  ASSERT_FALSE(keys.empty());
  for (const auto& key : keys) {
    ASSERT_TRUE(d.warehouse->index_store()
                    .DeleteItem(d.warehouse->front_end(), key.table, key.hash,
                                key.range)
                    .ok());
  }

  auto audit = d.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.value().missing_uris, std::vector<std::string>{victim});
  EXPECT_TRUE(audit.value().partial_uris.empty());
  EXPECT_TRUE(audit.value().orphaned_uris.empty());

  auto repair = d.warehouse->Scrub(/*repair=*/true);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair.value().repaired_uris, 1u);
  EXPECT_EQ(repair.value().items_put, keys.size());
  EXPECT_EQ(Dump(*d.warehouse), clean_dump);
}

// Postings of a document that no longer exists in the bucket are
// orphans: flagged by the audit, deleted by the repair.
TEST(ScrubberTest, OrphanedPostingsAreDeleted) {
  Deployment d = Deploy(StrategyKind::kLU);
  const std::string victim = d.warehouse->document_uris().front();
  ASSERT_TRUE(d.env->s3()
                  .Delete(d.warehouse->front_end(),
                          d.warehouse->config().data_bucket, victim)
                  .ok());

  auto audit = d.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.value().orphaned_uris, std::vector<std::string>{victim});
  EXPECT_TRUE(audit.value().missing_uris.empty());
  EXPECT_TRUE(audit.value().partial_uris.empty());
  EXPECT_EQ(audit.value().documents_checked, Corpus().size() - 1);

  auto repair = d.warehouse->Scrub(/*repair=*/true);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair.value().repaired_uris, 1u);
  EXPECT_GT(repair.value().items_deleted, 0u);
  bool victim_posting_left = false;
  d.warehouse->index_store().ForEachItem(
      [&victim_posting_left, &victim](const std::string&,
                                      const cloud::Item& item) {
        if (item.attrs.count(victim) > 0) victim_posting_left = true;
      });
  EXPECT_FALSE(victim_posting_left);

  auto second = d.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().Clean());
}

// A clean build audits clean, and the audit itself is a priced
// maintenance job (billed Scans and GETs), not free host-side tooling.
TEST(ScrubberTest, CleanIndexAuditsCleanForAPrice) {
  Deployment d = Deploy(StrategyKind::kLUI);
  const double before = d.env->meter().ComputeBill().total();
  auto audit = d.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit.value().Clean());
  EXPECT_EQ(audit.value().documents_checked, Corpus().size());
  EXPECT_GT(audit.value().items_scanned, 0u);
  EXPECT_GT(d.env->meter().ComputeBill().total(), before);
  const std::string text = audit.value().ToString();
  EXPECT_NE(text.find("index is clean"), std::string::npos);
}

// An upserted document is audited at its *live* generation
// (docs/MUTABILITY.md): losing its stamped postings is damage the scrub
// detects and repairs byte-identically, while the superseded
// generation-0 postings lingering for compaction are never flagged.
TEST(ScrubberTest, UpsertedDocumentIsRepairedAtItsLiveGeneration) {
  Deployment d = Deploy(StrategyKind::kLUP);
  const std::string victim = d.warehouse->document_uris().front();
  ASSERT_TRUE(d.warehouse->UpsertDocument(victim, Corpus()[1].text).ok());
  auto rerun = d.warehouse->RunIndexers();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  const std::vector<std::string> clean_dump = Dump(*d.warehouse);

  // Drop every stamped posting of the live generation, leaving only the
  // stale generation-0 ones.
  struct Key {
    std::string table, hash, range;
  };
  std::vector<Key> keys;
  d.warehouse->index_store().ForEachItem(
      [&keys, &victim](const std::string& table, const cloud::Item& item) {
        if (item.attrs.count(victim) > 0 &&
            item.attrs.count(index::kGenAttr) > 0) {
          keys.push_back({table, item.hash_key, item.range_key});
        }
      });
  ASSERT_FALSE(keys.empty());
  for (const auto& key : keys) {
    ASSERT_TRUE(d.warehouse->index_store()
                    .DeleteItem(d.warehouse->front_end(), key.table, key.hash,
                                key.range)
                    .ok());
  }

  auto audit = d.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.value().missing_uris, std::vector<std::string>{victim});
  EXPECT_TRUE(audit.value().partial_uris.empty());
  EXPECT_TRUE(audit.value().orphaned_uris.empty());

  auto repair = d.warehouse->Scrub(/*repair=*/true);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair.value().repaired_uris, 1u);
  EXPECT_EQ(repair.value().items_put, keys.size());
  EXPECT_EQ(Dump(*d.warehouse), clean_dump);
}

// Regression (docs/MUTABILITY.md): a tombstoned document must never be
// resurrected by a repair scrub.  Its postings linger (awaiting
// compaction) and its object is gone, but the scrub neither flags the
// leftovers as orphans nor re-puts anything.
TEST(ScrubberTest, TombstonedUriIsNeverResurrected) {
  Deployment d = Deploy(StrategyKind::k2LUPI);
  const std::string victim = d.warehouse->document_uris().front();
  ASSERT_TRUE(d.warehouse->DeleteDocument(victim).ok());
  auto rerun = d.warehouse->RunIndexers();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  const std::vector<std::string> tombstoned_dump = Dump(*d.warehouse);

  auto audit = d.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_TRUE(audit.value().Clean());
  auto repair = d.warehouse->Scrub(/*repair=*/true);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair.value().repaired_uris, 0u);
  EXPECT_EQ(repair.value().items_put, 0u);
  EXPECT_EQ(repair.value().items_deleted, 0u);
  EXPECT_EQ(Dump(*d.warehouse), tombstoned_dump);

  // Retiring the tombstone is compaction's job; once collected, the
  // scrub still audits clean (nothing resurfaces).
  auto compacted = d.warehouse->Compact(/*full=*/false);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted.value().collected_uris,
            std::vector<std::string>{victim});
  bool victim_posting_left = false;
  d.warehouse->index_store().ForEachItem(
      [&victim_posting_left, &victim](const std::string&,
                                      const cloud::Item& item) {
        if (item.attrs.count(victim) > 0) victim_posting_left = true;
      });
  EXPECT_FALSE(victim_posting_left);
  auto second = d.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().Clean());
}

// A warehouse without an index has nothing to scrub: the pass refuses up
// front, as compaction does, instead of scanning tables never created.
TEST(ScrubberTest, ScrubWithoutIndexIsAFailedPrecondition) {
  cloud::CloudEnv env;
  WarehouseConfig config;
  config.use_index = false;
  Warehouse warehouse(&env, config);
  ASSERT_TRUE(warehouse.Setup().ok());
  for (const bool repair : {false, true}) {
    auto scrub = warehouse.Scrub(repair);
    EXPECT_TRUE(scrub.status().IsFailedPrecondition())
        << scrub.status().ToString();
  }
  EXPECT_TRUE(
      warehouse.Compact(/*full=*/false).status().IsFailedPrecondition());
}

// The operational alternative to scrubbing: re-drive the dead-lettered
// task onto its origin queue and let a fresh indexing run converge the
// index without any repair pass.
TEST(ScrubberTest, DeadLetterDrainReconvergesWithoutScrub) {
  Deployment clean = Deploy(StrategyKind::k2LUPI);
  const std::vector<std::string> clean_dump = Dump(*clean.warehouse);

  Deployment hurt = DeployHalfWritten(StrategyKind::k2LUPI);
  ASSERT_GE(hurt.report.dead_lettered, 1u);
  ASSERT_NE(Dump(*hurt.warehouse), clean_dump);

  auto drained = hurt.warehouse->DrainDeadLetters();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_GE(drained.value(), 1u);

  auto rerun = hurt.warehouse->RunIndexers();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(Dump(*hurt.warehouse), clean_dump);

  // Nothing left parked, and the audit agrees.
  auto again = hurt.warehouse->DrainDeadLetters();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
  auto audit = hurt.warehouse->Scrub(/*repair=*/false);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit.value().Clean());
}

}  // namespace
}  // namespace webdex::engine
