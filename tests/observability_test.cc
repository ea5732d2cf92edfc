// Observability contract (docs/OBSERVABILITY.md): deterministic
// log-bucketed histograms, the metric-name grammar, the virtual-time
// span tracer, and — the acceptance check of the layer — exact cost
// conservation: a traced run's rolled-up dollar cost equals the metered
// Usage delta to the cent, fault-free and under chaos with retries, the
// canonical trace is byte-identical serial vs host_threads=8, and each
// cloud event is counted once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/trace.h"
#include "common/metrics.h"
#include "common/tracer.h"
#include "engine/warehouse.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"

namespace webdex {
namespace {

using common::Histogram;
using common::MetricRegistry;
using common::Tracer;
using common::TraceSpan;
using common::ValidMetricName;

// --- Histogram: buckets, merge, quantiles --------------------------------

TEST(HistogramTest, BucketIndexIsLogBase2WithInclusiveUpperBounds) {
  // Bucket 0 collects v <= 2^-31 (zero and negatives included).
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::exp2(-31.0)), 0);
  // Bucket i in [1, 63] collects (2^(i-32), 2^(i-31)]: exact powers of
  // two land on their bucket's inclusive upper bound.
  EXPECT_EQ(Histogram::BucketIndex(1.0), 31);
  EXPECT_EQ(Histogram::BucketIndex(1.5), 32);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 32);
  EXPECT_EQ(Histogram::BucketIndex(2.0 + 1e-9), 33);
  // Overflow clamps to the last bucket.
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(31), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(32), 2.0);
}

TEST(HistogramTest, RecordTracksExactSummaryStatistics) {
  Histogram h;
  for (double v : {4.0, 1.0, 9.0, 0.5}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_DOUBLE_EQ(h.mean(), 14.5 / 4);
  EXPECT_EQ(h.bucket_count(Histogram::BucketIndex(4.0)), 1u);
}

TEST(HistogramTest, MergeIsBucketwiseAdditionAndOrderIndependent) {
  Histogram a;
  Histogram b;
  Histogram all;
  for (double v : {1.0, 2.5, 1e6}) {
    a.Record(v);
    all.Record(v);
  }
  for (double v : {0.0, 3.0, 2.5}) {
    b.Record(v);
    all.Record(v);
  }
  Histogram merged;
  merged.Merge(a);
  merged.Merge(b);
  Histogram reversed;
  reversed.Merge(b);
  reversed.Merge(a);
  for (const Histogram* m : {&merged, &reversed}) {
    EXPECT_EQ(m->count(), all.count());
    EXPECT_DOUBLE_EQ(m->sum(), all.sum());
    EXPECT_DOUBLE_EQ(m->min(), all.min());
    EXPECT_DOUBLE_EQ(m->max(), all.max());
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      EXPECT_EQ(m->bucket_count(i), all.bucket_count(i)) << "bucket " << i;
    }
  }
}

TEST(HistogramTest, QuantileIsBucketBoundClampedToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(10.0);  // bucket (8, 16]
  h.Record(1000.0);
  // The median's bucket upper bound is 16, within [min, max].
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 16.0);
  // The top clamps to the exact observed max.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
  // A single-sample histogram clamps every quantile to that sample.
  Histogram single;
  single.Record(10.0);
  EXPECT_DOUBLE_EQ(single.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(single.Quantile(0.99), 10.0);
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
}

// --- Metric names and registry -------------------------------------------

TEST(MetricNameTest, GrammarAcceptsDottedLowercaseSegments) {
  EXPECT_TRUE(ValidMetricName("service.s3.get.latency_us"));
  EXPECT_TRUE(ValidMetricName("planner.estimate_error_ratio"));
  EXPECT_TRUE(ValidMetricName("a.b"));
  EXPECT_TRUE(ValidMetricName("a.9b"));  // later segments may start [0-9_]
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("single_segment"));
  EXPECT_FALSE(ValidMetricName(".a"));
  EXPECT_FALSE(ValidMetricName("a."));
  EXPECT_FALSE(ValidMetricName("a..b"));
  EXPECT_FALSE(ValidMetricName("A.b"));
  EXPECT_FALSE(ValidMetricName("9a.b"));  // first segment starts [a-z]
  EXPECT_FALSE(ValidMetricName("a.b-c"));
  EXPECT_FALSE(ValidMetricName("a b.c"));
}

TEST(MetricRegistryTest, HandlesAreStableAndReadableByName) {
  MetricRegistry registry;
  common::Counter* c = registry.GetCounter("engine.test.count");
  c->Add(3);
  EXPECT_EQ(registry.GetCounter("engine.test.count"), c);
  EXPECT_EQ(registry.CounterValue("engine.test.count"), 3u);
  EXPECT_EQ(registry.CounterValue("engine.missing.count"), 0u);
  EXPECT_EQ(registry.FindCounter("engine.missing.count"), nullptr);
  registry.GetGauge("engine.test.gauge")->Set(2.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("engine.test.gauge"), 2.5);
  registry.GetHistogram("engine.test.latency_us")->Record(7.0);
  // Names come back sorted (map order).
  const std::vector<std::string> names = registry.Names();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "engine.test.count", "engine.test.gauge",
                       "engine.test.latency_us"}));
  // Reset zeroes values but keeps registrations (and pointers).
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(registry.Names(), names);
}

TEST(MetricRegistryTest, PrometheusExpositionUsesWebdexPrefixAndBuckets) {
  MetricRegistry registry;
  registry.GetCounter("engine.query.count")->Add(2);
  registry.GetHistogram("engine.query.latency_us")->Record(3.0);
  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("webdex_engine_query_count 2"), std::string::npos);
  EXPECT_NE(text.find("webdex_engine_query_latency_us_bucket{le="),
            std::string::npos);
  EXPECT_NE(text.find("webdex_engine_query_latency_us_sum"),
            std::string::npos);
  EXPECT_NE(text.find("webdex_engine_query_latency_us_count 1"),
            std::string::npos);
}

TEST(MetricRegistryTest, JsonDumpIsDeterministic) {
  MetricRegistry registry;
  registry.GetCounter("b.count")->Add(1);
  registry.GetGauge("a.gauge")->Set(0.5);
  registry.GetHistogram("c.latency_us")->Record(4.0);
  const std::string once = registry.ToJson();
  EXPECT_EQ(once, registry.ToJson());
  EXPECT_NE(once.find("\"counters\""), std::string::npos);
  EXPECT_NE(once.find("\"b.count\":1"), std::string::npos);
  EXPECT_NE(once.find("\"histograms\""), std::string::npos);
}

// --- Tracer: span trees over virtual time --------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.BeginSpan("query", 10), 0u);
  tracer.AddAttr(0, "usd", 1.0);
  tracer.EndSpan(0, 20);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.current(), 0u);
}

TEST(TracerTest, SpansNestThroughTheExplicitStack) {
  Tracer tracer;
  tracer.set_enabled(true);
  const uint64_t root = tracer.BeginSpan("query.run", 0);
  const uint64_t child = tracer.BeginSpan("plan", 5);
  EXPECT_EQ(tracer.current(), child);
  tracer.AddAttr(child, "usd", 0.25);
  tracer.EndSpan(child, 7);
  const uint64_t sibling = tracer.BeginSpan("fetch", 7);
  tracer.EndSpan(sibling, 9);
  tracer.EndSpan(root, 10);

  ASSERT_EQ(tracer.spans().size(), 3u);
  // Ids are creation ordinals, 1-based.
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(child, 2u);
  EXPECT_EQ(sibling, 3u);
  EXPECT_EQ(tracer.Find(child)->parent, root);
  EXPECT_EQ(tracer.Find(sibling)->parent, root);
  ASSERT_EQ(tracer.Roots().size(), 1u);
  EXPECT_EQ(tracer.Roots()[0]->id, root);
  EXPECT_EQ(tracer.Children(root).size(), 2u);
  EXPECT_DOUBLE_EQ(Tracer::Attr(*tracer.Find(child), "usd"), 0.25);
  EXPECT_DOUBLE_EQ(Tracer::Attr(*tracer.Find(child), "missing", -1), -1.0);
}

TEST(TracerTest, EndingAParentClosesItsOpenChildren) {
  Tracer tracer;
  tracer.set_enabled(true);
  const uint64_t root = tracer.BeginSpan("index.run", 0);
  const uint64_t leaked = tracer.BeginSpan("index.task", 3);
  tracer.EndSpan(root, 9);
  EXPECT_EQ(tracer.Find(leaked)->end_us, 9);
  EXPECT_EQ(tracer.current(), 0u);
}

TEST(TracerTest, RenderingsAreDeterministic) {
  Tracer tracer;
  tracer.set_enabled(true);
  const uint64_t root = tracer.BeginSpan("query.run", 0);
  tracer.AddAttr(root, "usd", 2e-6);
  const uint64_t child = tracer.BeginSpan("fetch", 1);
  tracer.AddAttr(child, "usd", 1.5e-6);
  tracer.EndSpan(child, 4);
  tracer.EndSpan(root, 5);
  const std::string canonical = tracer.Canonical();
  EXPECT_EQ(canonical, tracer.Canonical());
  EXPECT_NE(canonical.find("query.run"), std::string::npos);
  // One JSONL line per span.
  const std::string jsonl = tracer.ToJsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"id\":1"), std::string::npos);
  EXPECT_NE(tracer.CostRollup().find("self"), std::string::npos);
  tracer.Clear();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(MeteredSpanTest, AttributesTheExactMeteredDelta) {
  cloud::CloudEnv env;
  env.tracer().set_enabled(true);
  cloud::SimAgent agent;
  ASSERT_TRUE(env.s3().CreateBucket("b").ok());
  const cloud::Usage before = env.meter().Snapshot();
  {
    cloud::MeteredSpan span(&env.tracer(), &env.meter(), agent, "upload");
    ASSERT_TRUE(env.s3().Put(agent, "b", "k", std::string(1024, 'x')).ok());
  }
  const cloud::Usage delta = env.meter().Snapshot() - before;
  ASSERT_EQ(env.tracer().spans().size(), 1u);
  const TraceSpan& span = env.tracer().spans()[0];
  EXPECT_DOUBLE_EQ(Tracer::Attr(span, "usd"),
                   env.meter().ComputeBill(delta).total());
  EXPECT_DOUBLE_EQ(Tracer::Attr(span, "usage.s3_put_requests"), 1.0);
  EXPECT_DOUBLE_EQ(Tracer::Attr(span, "usage.s3_bytes_in"), 1024.0);
}

// --- End-to-end: cost conservation and trace determinism -----------------

using engine::IndexBackend;
using engine::Warehouse;
using engine::WarehouseConfig;
using index::StrategyKind;

std::vector<xmark::GeneratedDocument> Corpus() {
  auto docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = 6;
  config.entities_per_document = 5;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  return docs;
}

const char* kQuery = "//painting[/name~'Lion', //painter/name/last:val]";

cloud::FaultPlan ChaosPlan() {
  cloud::FaultPlan plan;
  plan.seed = 7;
  plan.s3.error_probability = 0.05;
  plan.s3.throttle_share = 0.3;
  plan.dynamodb.error_probability = 0.05;
  plan.dynamodb.throttle_share = 0.7;
  plan.dynamodb.unprocessed_probability = 0.15;
  plan.sqs.error_probability = 0.04;
  plan.sqs.duplicate_probability = 0.06;
  plan.sqs.delay_probability = 0.2;
  plan.sqs.max_delay = 2 * cloud::kMicrosPerSecond;
  return plan;
}

/// Rebuilds a span's Usage delta from its `usage.<field>` attributes.
cloud::Usage UsageFromAttrs(const TraceSpan& span) {
  cloud::Usage u;
  u.ForEachField([&span](const char* name, auto* field) {
    *field = static_cast<std::remove_reference_t<decltype(*field)>>(
        Tracer::Attr(span, std::string("usage.") + name));
  });
  return u;
}

struct TracedRun {
  std::string canonical;
  double indexing_usd = 0;      // metered around RunIndexers
  double query_usd = 0;         // metered around ExecuteQuery
  double index_span_usd = 0;    // the index.run root's `usd` attribute
  double query_span_usd = 0;    // the query.run root's `usd` attribute
  cloud::Usage usage;
  std::vector<std::vector<std::string>> rows;
};

TracedRun RunTraced(const cloud::FaultPlan& plan, int host_threads) {
  cloud::CloudConfig cloud_config;
  cloud_config.faults = plan;
  auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
  env->tracer().set_enabled(true);
  WarehouseConfig config;
  config.strategy = StrategyKind::k2LUPI;
  config.num_instances = 2;
  config.host_threads = host_threads;
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : Corpus()) {
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  TracedRun out;
  const cloud::Usage before_index = env->meter().Snapshot();
  auto report = warehouse.RunIndexers();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  out.indexing_usd =
      env->meter().ComputeBill(env->meter().Snapshot() - before_index).total();
  const cloud::Usage before_query = env->meter().Snapshot();
  auto outcome = warehouse.ExecuteQuery(kQuery);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  out.query_usd =
      env->meter().ComputeBill(env->meter().Snapshot() - before_query).total();
  if (outcome.ok()) out.rows = outcome.value().result.rows;

  const Tracer& tracer = env->tracer();
  for (const TraceSpan* root : tracer.Roots()) {
    if (root->name == "index.run") {
      out.index_span_usd = Tracer::Attr(*root, "usd");
    } else if (root->name == "query.run") {
      out.query_span_usd = Tracer::Attr(*root, "usd");
    }
  }

  // Structural cost conservation, on every span of the trace: the `usd`
  // attribute prices the span's own usage.* delta exactly, and a parent's
  // delta covers the sum of its children's (self share >= 0 per field) —
  // so any subtree's rolled-up cost is the exact metered sum.
  for (const TraceSpan& span : tracer.spans()) {
    const cloud::Usage own = UsageFromAttrs(span);
    EXPECT_DOUBLE_EQ(Tracer::Attr(span, "usd"),
                     env->meter().ComputeBill(own).total())
        << "span " << span.id << " (" << span.name << ")";
    cloud::Usage children_sum;
    for (const TraceSpan* child : tracer.Children(span.id)) {
      children_sum += UsageFromAttrs(*child);
    }
    // Per field, the parent's delta covers the sum of its children's
    // (compare in doubles: Usage fields are unsigned).
    std::map<std::string, double> child_fields;
    static_cast<const cloud::Usage&>(children_sum)
        .ForEachField([&child_fields](const char* n, auto v) {
          child_fields[n] = double(v);
        });
    own.ForEachField([&](const char* name, auto parent_value) {
      EXPECT_GE(double(parent_value) + 1e-9, child_fields[name])
          << "span " << span.id << " (" << span.name << ") field " << name;
    });
  }

  out.canonical = tracer.Canonical();
  out.usage = env->meter().usage();
  return out;
}

// The acceptance check: the traced roots' rolled-up dollars equal the
// independently metered deltas to the cent (exactly, in fact).
TEST(CostConservationTest, FaultFreeRootSpansMatchMeteredBills) {
  const TracedRun run = RunTraced(cloud::FaultPlan(), 1);
  ASSERT_FALSE(run.rows.empty());
  EXPECT_EQ(run.rows[0][0], "Delacroix");
  EXPECT_GT(run.indexing_usd, 0.0);
  EXPECT_GT(run.query_usd, 0.0);
  EXPECT_DOUBLE_EQ(run.index_span_usd, run.indexing_usd);
  EXPECT_DOUBLE_EQ(run.query_span_usd, run.query_usd);
  EXPECT_EQ(run.usage.faulted_requests, 0u);
}

// Under chaos the same equality holds — retried and faulted attempts are
// billed inside the attempt.* leaf spans, so the rollup still accounts
// for every metered cent.
TEST(CostConservationTest, ChaosRootSpansMatchMeteredBillsExactly) {
  const TracedRun run = RunTraced(ChaosPlan(), 1);
  EXPECT_GT(run.usage.faulted_requests, 0u);
  EXPECT_GT(run.usage.retried_requests, 0u);
  ASSERT_FALSE(run.rows.empty());
  EXPECT_EQ(run.rows[0][0], "Delacroix");
  EXPECT_DOUBLE_EQ(run.index_span_usd, run.indexing_usd);
  EXPECT_DOUBLE_EQ(run.query_span_usd, run.query_usd);
}

// Span ids are creation ordinals and all timestamps are virtual, so the
// canonical trace is byte-identical serial vs host-parallel — fault-free
// and under chaos.
TEST(TraceDeterminismTest, SerialAndParallelTracesAreByteIdentical) {
  const TracedRun serial = RunTraced(cloud::FaultPlan(), 1);
  const TracedRun parallel = RunTraced(cloud::FaultPlan(), 8);
  EXPECT_EQ(serial.canonical, parallel.canonical);
  EXPECT_FALSE(serial.canonical.empty());
}

TEST(TraceDeterminismTest, ChaosTracesAreByteIdenticalAcrossHostThreads) {
  const TracedRun serial = RunTraced(ChaosPlan(), 1);
  const TracedRun parallel = RunTraced(ChaosPlan(), 8);
  EXPECT_GT(serial.usage.faulted_requests, 0u);
  EXPECT_EQ(serial.canonical, parallel.canonical);
}

// Each cloud event has exactly one count.  Usage alone counts faults,
// retries, breaker transitions, bytes, units, redeliveries, replica
// reads, sheds, tombstones and collected items: no registry metric
// re-counts them.  The attempt spans of the one retry loop (warehouse
// S3/SQS sites and index-store verbs alike) agree with the attempts
// counter and with Usage::retried_requests, and every registered name
// obeys the documented grammar.
TEST(OneCountPerEventTest, AttemptSpansMatchRetryCountsAfterChaosRun) {
  cloud::CloudConfig cloud_config;
  cloud_config.faults = ChaosPlan();
  auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
  env->tracer().set_enabled(true);
  WarehouseConfig config;
  config.strategy = StrategyKind::k2LUPI;
  config.num_instances = 2;
  Warehouse warehouse(env.get(), config);
  ASSERT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : Corpus()) {
    ASSERT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  ASSERT_TRUE(warehouse.RunIndexers().ok());
  ASSERT_TRUE(warehouse.ExecuteQuery(kQuery).ok());

  const MetricRegistry& metrics = env->metrics();
  const cloud::Usage& usage = env->meter().usage();
  EXPECT_GT(usage.faulted_requests, 0u);
  const std::vector<std::string> names = metrics.Names();
  for (const char* twin :
       {"cloud.faults.injected.count", "cloud.breaker.opens.count",
        "cloud.breaker.closes.count", "cloud.breaker.short_circuits.count",
        "cloud.retry.retries.count", "service.s3.bytes_in.total",
        "service.s3.bytes_out.total", "service.sqs.redeliveries.count",
        "service.dynamodb.write_units.total",
        "service.dynamodb.read_units.total", "replica.reads.count",
        "admission.shed.count", "index.tombstone.written.count",
        "index.compact.gc_items.count"}) {
    EXPECT_EQ(std::count(names.begin(), names.end(), twin), 0) << twin;
  }

  const std::set<std::string> store_verbs = {
      "attempt.create_table", "attempt.batch_put", "attempt.batch_get",
      "attempt.scan", "attempt.delete_item"};
  uint64_t attempts = 0;
  uint64_t store_retries = 0;
  uint64_t warehouse_retries = 0;
  for (const TraceSpan& span : env->tracer().spans()) {
    if (!span.name.starts_with("attempt.")) continue;
    ++attempts;
    if (Tracer::Attr(span, "attempt") <= 1) continue;
    ++(store_verbs.count(span.name) > 0 ? store_retries : warehouse_retries);
  }
  EXPECT_EQ(attempts, metrics.CounterValue("cloud.retry.attempts.count"));
  EXPECT_EQ(store_retries + warehouse_retries, usage.retried_requests);
  EXPECT_GT(store_retries, 0u);
  EXPECT_GT(warehouse_retries, 0u);

  EXPECT_EQ(metrics.CounterValue("engine.query.count"), 1u);
  const common::Histogram* latency =
      metrics.FindHistogram("engine.query.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);
  for (const std::string& name : names) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
  }
}

}  // namespace
}  // namespace webdex
