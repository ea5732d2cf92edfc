// Byte-level golden of the index maintenance passes (docs/MUTABILITY.md,
// docs/FAULTS.md): one seeded schedule of upserts, deletes, a GC-only
// compaction, an injected partial write with a repairing scrub, and a
// full compaction, run on the default layout and on a sharded,
// replicated one (prov-s4-r1), under DynamoDB and SimpleDB, and once
// more on the default layout under transient faults.  Per step it
// pins the pass's report, the Usage and bill it metered, the store
// fingerprint, the virtual clock and the pass's canonical trace (its
// root span verbatim, the whole tree hashed), so a
// change to how the passes read or write the index cannot move a byte
// of what they bill or leave behind.
//
// Regenerate deliberately with WEBDEX_UPDATE_GOLDEN=1 (the test then
// rewrites tests/golden/maintenance_reports.txt and fails once).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/kv_store.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/warehouse.h"
#include "index/generation.h"
#include "scenario.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

constexpr int kNumDocs = 6;
constexpr int kEntities = 5;

std::string GoldenPath() {
  // __FILE__ is the absolute source path under CMake, so the golden file
  // lives next to this test regardless of the build directory.
  std::string path = __FILE__;
  path = path.substr(0, path.find_last_of('/'));
  return path + "/golden/maintenance_reports.txt";
}

/// One deployment under test and the rendering of its steps.
class Run {
 public:
  Run(const cloud::ArchitectureSpec& arch, IndexBackend backend,
      const cloud::FaultPlan& faults) {
    cloud::CloudConfig cloud_config;
    cloud_config.arch = arch;
    cloud_config.faults = faults;
    env_ = std::make_unique<cloud::CloudEnv>(cloud_config);
    WarehouseConfig config;
    config.strategy = StrategyKind::k2LUPI;
    config.backend = backend;
    config.num_instances = 2;
    warehouse_ = std::make_unique<Warehouse>(env_.get(), config);
    EXPECT_TRUE(warehouse_->Setup().ok());
    for (int d = 0; d < kNumDocs; ++d) {
      const std::string text = DocText(kNumDocs, kEntities, d, 0);
      EXPECT_TRUE(warehouse_->SubmitDocument(DocUri(d), text).ok());
    }
    Index();
    env_->tracer().set_enabled(true);
  }

  Warehouse& warehouse() { return *warehouse_; }
  cloud::CloudEnv& env() { return *env_; }
  const std::string& out() const { return out_; }

  void Upsert(int doc, int version) {
    const std::string text = DocText(kNumDocs, kEntities, doc, version);
    EXPECT_TRUE(warehouse_->UpsertDocument(DocUri(doc), text).ok());
  }
  void Delete(int doc) {
    EXPECT_TRUE(warehouse_->DeleteDocument(DocUri(doc)).ok());
  }
  void Index() {
    auto report = warehouse_->RunIndexers();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  }

  /// Runs one maintenance pass and renders everything it changed.
  template <typename Pass>
  void Step(const std::string& name, const Pass& pass) {
    env_->tracer().Clear();
    const cloud::Usage before = env_->meter().Snapshot();
    const std::string report = pass();
    const cloud::Usage delta = env_->meter().Snapshot() - before;
    out_ += "--- " + name + "\n" + report;
    out_ += "usage:";
#define WEBDEX_GOLDEN_FIELD(field)                                   \
  if (delta.field != 0) {                                            \
    out_ += StrFormat(" " #field "=%.17g",                            \
                      static_cast<double>(delta.field));              \
  }
    WEBDEX_USAGE_FIELDS(WEBDEX_GOLDEN_FIELD)
#undef WEBDEX_GOLDEN_FIELD
    out_ += "\n";
    out_ += "bill: " + StrFormat("%.17g", env_->meter()
                                              .ComputeBill(delta)
                                              .total()) +
            "\n";
    out_ += StrFormat(
        "store: %016llx  now: %lld\n",
        static_cast<unsigned long long>(
            cloud::FingerprintStore(warehouse_->index_store())),
        static_cast<long long>(warehouse_->front_end().now()));
    // The root span verbatim; its subtree (one attempt span per billed
    // call, in call order) as a span count and a hash of its rendering.
    const std::string trace = env_->tracer().Canonical();
    out_ += trace.substr(0, trace.find('\n') + 1);
    out_ += StrFormat("trace: %zu spans, fnv %016llx\n",
                      env_->tracer().spans().size(),
                      static_cast<unsigned long long>(Fnv1a64(trace)));
  }

  void Compact(const std::string& name, bool full) {
    Step(name, [&] {
      auto report = warehouse_->Compact(full);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      return report.ok() ? report.value().ToString() : std::string();
    });
  }
  void Scrub(const std::string& name, bool repair) {
    Step(name, [&] {
      auto report = warehouse_->Scrub(repair);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      return report.ok() ? report.value().ToString() : std::string();
    });
  }

 private:
  std::unique_ptr<cloud::CloudEnv> env_;
  std::unique_ptr<Warehouse> warehouse_;
  std::string out_;
};

/// Deletes every other posting of `uri` stamped at a generation above 0
/// through the billed API — the trace a crash midway through the URI's
/// upsert upload would leave.
void DropHalfOfLivePostings(Warehouse& warehouse, const std::string& uri) {
  struct Key {
    std::string table, hash, range;
  };
  std::vector<Key> keys;
  cloud::ForEachStoredItem(
      warehouse.index_store(),
      [&](const std::string& table, const cloud::ItemView& item) {
        if (item.attrs().Find(uri).has_value() && index::StampOf(item) > 0) {
          keys.push_back({table, std::string(item.hash_key),
                          std::string(item.range_key())});
        }
      });
  ASSERT_GE(keys.size(), 2u);
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(warehouse.index_store()
                    .DeleteItem(warehouse.front_end(), keys[i].table,
                                keys[i].hash, keys[i].range)
                    .ok());
  }
}

std::string Schedule(const cloud::ArchitectureSpec& arch,
                     IndexBackend backend,
                     const cloud::FaultPlan& faults = cloud::FaultPlan()) {
  Run run(arch, backend, faults);
  run.Upsert(0, 1);
  run.Upsert(1, 1);
  run.Delete(2);
  run.Index();
  run.Compact("compact gc", /*full=*/false);
  run.Upsert(1, 2);
  run.Upsert(3, 2);
  run.Delete(4);
  run.Index();
  run.Scrub("scrub clean", /*repair=*/false);
  DropHalfOfLivePostings(run.warehouse(), DocUri(3));
  // A document lost from the bucket leaves its postings orphaned.
  EXPECT_TRUE(run.env()
                  .s3()
                  .Delete(run.warehouse().front_end(),
                          run.warehouse().config().data_bucket, DocUri(5))
                  .ok());
  run.Scrub("scrub audit", /*repair=*/false);
  run.Scrub("scrub repair", /*repair=*/true);
  run.Compact("compact full", /*full=*/true);
  run.Scrub("scrub after", /*repair=*/false);
  return run.out();
}

TEST(MaintenanceGoldenTest, ReportsBillsAndTracesAreUnchanged) {
  cloud::ArchitectureSpec sharded;
  sharded.shards = 4;
  sharded.replicas = 1;
  std::string rendered;
  for (const cloud::ArchitectureSpec& arch :
       {cloud::ArchitectureSpec(), sharded}) {
    for (IndexBackend backend :
         {IndexBackend::kDynamoDb, IndexBackend::kSimpleDb}) {
      rendered += StrFormat(
          "=== %s %s\n", arch.Name().c_str(),
          backend == IndexBackend::kDynamoDb ? "DynamoDB" : "SimpleDB");
      rendered += Schedule(arch, backend);
    }
  }
  // Transient faults on every service pin the retry jitter streams and
  // show that a retried scan is read once.
  cloud::FaultPlan faults;
  faults.seed = 11;
  faults.s3.error_probability = 0.03;
  faults.dynamodb.error_probability = 0.05;
  faults.dynamodb.throttle_share = 0.5;
  rendered += "=== prov-s1-r0 DynamoDB faulted\n";
  rendered += Schedule(cloud::ArchitectureSpec(), IndexBackend::kDynamoDb,
                       faults);
  if (std::getenv("WEBDEX_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << GoldenPath();
    out << rendered;
    FAIL() << "golden regenerated at " << GoldenPath()
           << " — rerun without WEBDEX_UPDATE_GOLDEN";
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << GoldenPath();
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str());
}

}  // namespace
}  // namespace webdex::engine
