#ifndef WEBDEX_TESTS_SCENARIO_H_
#define WEBDEX_TESTS_SCENARIO_H_

// The engine's equivalence suites on one harness.  A Scenario (a cloud
// and a warehouse config, documents, queries) deploys to a Deployment
// and runs to an Outcome, and one oracle compares Outcomes:
//   * ExpectSameState: index contents, document bucket and query rows
//     agree, as a faulted, mutated or re-shaped run must with its
//     reference run;
//   * ExpectSerialEqualsParallel: runs at host_threads 1 and 8 agree on
//     every Outcome field and on the snapshot of the cloud they leave;
//   * ExpectSpanCostConserved: every span's `usd` prices its own Usage
//     delta and covers its children's, checked by every RunScenario.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/kv_store.h"
#include "cloud/snapshot.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/tracer.h"
#include "engine/warehouse.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"
#include "store_dump.h"

namespace webdex::engine {

using Rows = std::vector<std::vector<std::string>>;

/// Answered from the paintings corpus with one row, Delacroix.
inline constexpr char kPaintingQuery[] =
    "//painting[/name~'Lion', //painter/name/last:val]";

/// The paintings corpus, then `xmark_documents` XMark sites of
/// `entities` entities each.
inline std::vector<xmark::GeneratedDocument> PaintingsAndXmark(
    int xmark_documents, int entities) {
  auto docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = xmark_documents;
  config.entities_per_document = entities;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  return docs;
}

/// `documents` XMark documents of `entities` entities each, split into
/// section fragments as in the Table 5 bench: path mutations and
/// optional elements set the look-up strategies apart.
inline std::vector<xmark::GeneratedDocument> XmarkFragments(int documents,
                                                            int entities) {
  xmark::GeneratorConfig config;
  config.split_sections = true;
  config.num_documents = documents;
  config.entities_per_document = entities;
  return xmark::XmarkGenerator(config).GenerateAll();
}

/// URI of document `doc` of a versioned corpus (DocText).
inline std::string DocUri(int doc) { return StrFormat("xmark-%06d.xml", doc); }

/// Document `doc` of a corpus of `documents` XMark sites with `entities`
/// entities each, at content `version`: every version is a fresh corpus
/// under the same URIs, so an upsert replaces what the index must answer
/// from.
inline std::string DocText(int documents, int entities, int doc,
                           int version) {
  xmark::GeneratorConfig config;
  config.num_documents = documents;
  config.entities_per_document = entities;
  config.seed += static_cast<uint64_t>(version) * 1000003ull;
  return xmark::XmarkGenerator(config).Generate(doc).text;
}

/// A moderately hostile cloud: every service faulting a few percent of
/// attempts, DynamoDB bouncing batch suffixes, SQS duplicating and
/// delaying deliveries, instances crashing at both engine crash points.
inline cloud::FaultPlan ChaosPlan() {
  cloud::FaultPlan plan;
  plan.seed = 7;
  plan.s3.error_probability = 0.05;
  plan.s3.throttle_share = 0.3;
  plan.dynamodb.error_probability = 0.05;
  plan.dynamodb.throttle_share = 0.7;
  plan.dynamodb.unprocessed_probability = 0.15;
  plan.simpledb.error_probability = 0.05;
  plan.simpledb.throttle_share = 0.5;
  plan.sqs.error_probability = 0.04;
  plan.sqs.duplicate_probability = 0.06;
  plan.sqs.delay_probability = 0.2;
  plan.sqs.max_delay = 2 * cloud::kMicrosPerSecond;
  plan.crash.before_delete_probability = 0.04;
  plan.crash.between_batch_put_pages_probability = 0.04;
  return plan;
}

struct Outcome;

struct Scenario {
  cloud::CloudConfig cloud;
  WarehouseConfig warehouse;
  std::vector<xmark::GeneratedDocument> documents;
  /// Run as one ExecuteQueries batch after indexing (none: no batch).
  std::vector<std::string> queries;
  /// Steps between the first indexing run and the queries.  They may
  /// Restart the deployment and record notes.
  std::function<void(Outcome&)> after_index;
};

/// A traced cloud and a warehouse on it, with a scenario's documents
/// submitted.  Clouds a Restart replaced stay in `retired`.
struct Deployment {
  std::vector<std::unique_ptr<cloud::CloudEnv>> retired;
  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<Warehouse> warehouse;
};

/// What a run did and left behind.  Usage, bill and trace cover the
/// retired clouds too.
struct Outcome {
  Deployment deployment;
  IndexingRunReport report;           // the first indexing run
  cloud::Micros index_end = 0;        // front-end clock after it
  cloud::Usage index_usage;           // metered by it
  std::vector<std::string> dump;      // cloud::DumpStore of the index
  uint64_t fingerprint = 0;           // cloud::FingerprintStore of it
  std::vector<std::string> objects;   // data bucket: "key|size|fnv"
  QueryRunReport queries;             // the last query batch
  std::vector<Rows> rows;             // its rows, per query
  cloud::Usage query_usage;           // metered by it
  cloud::Usage usage;
  double bill = 0;
  std::string trace;                  // canonical
  std::vector<std::string> notes;     // recorded by after_index

  cloud::CloudEnv& env() const { return *deployment.env; }
  Warehouse& warehouse() const { return *deployment.warehouse; }
};

inline Deployment Deploy(const Scenario& scenario) {
  Deployment d;
  d.env = std::make_unique<cloud::CloudEnv>(scenario.cloud);
  d.env->tracer().set_enabled(true);
  d.warehouse = std::make_unique<Warehouse>(d.env.get(), scenario.warehouse);
  EXPECT_TRUE(d.warehouse->Setup().ok());
  for (const auto& doc : scenario.documents) {
    EXPECT_TRUE(d.warehouse->SubmitDocument(doc.uri, doc.text).ok())
        << doc.uri;
  }
  return d;
}

/// Rebuilds a span's Usage delta from its `usage.<field>` attributes.
inline cloud::Usage SpanUsage(const common::TraceSpan& span) {
  cloud::Usage usage;
  usage.ForEachField([&span](const char* name, auto* field) {
    *field = static_cast<std::remove_reference_t<decltype(*field)>>(
        common::Tracer::Attr(span, std::string("usage.") + name));
  });
  return usage;
}

/// Structural cost conservation on every span of `env`'s trace: the
/// `usd` attribute prices the span's own usage.* delta exactly, and a
/// parent's delta covers the sum of its children's in every field, so
/// any subtree's rolled-up cost is the exact metered sum.
inline void ExpectSpanCostConserved(cloud::CloudEnv& env) {
  const std::vector<common::TraceSpan>& spans = env.tracer().spans();
  std::vector<cloud::Usage> own(spans.size());
  std::vector<cloud::Usage> children(spans.size());
  for (const common::TraceSpan& span : spans) {
    own[span.id - 1] = SpanUsage(span);
    if (span.parent == 0) continue;
    cloud::Usage child = own[span.id - 1];
    if (spans[span.parent - 1].name == "replica.read") {
      // A replica read refunds half the read capacity its primary-path
      // children metered, once they have closed (ReplicatedKvStore).
      child.ddb_read_units *= 0.5;
      child.ddb_ondemand_read_units *= 0.5;
      child.sdb_box_hours *= 0.5;
    }
    children[span.parent - 1] += child;
  }
  for (const common::TraceSpan& span : spans) {
    EXPECT_DOUBLE_EQ(common::Tracer::Attr(span, "usd"),
                     env.meter().ComputeBill(own[span.id - 1]).total())
        << "span " << span.id << " (" << span.name << ")";
    // Usage fields are unsigned: compare in doubles.
    std::vector<double> child_fields;
    static_cast<const cloud::Usage&>(children[span.id - 1])
        .ForEachField([&child_fields](const char*, auto value) {
          child_fields.push_back(double(value));
        });
    size_t field = 0;
    static_cast<const cloud::Usage&>(own[span.id - 1])
        .ForEachField([&](const char* name, auto value) {
          EXPECT_GE(double(value) + 1e-9, child_fields[field++])
              << "span " << span.id << " (" << span.name << ") field "
              << name;
        });
  }
}

/// Captures the run's state, usage, bill and trace as they stand.
inline void Capture(Outcome& run) {
  Warehouse& warehouse = run.warehouse();
  run.env().autoscaler().FinishBilling(warehouse.front_end().now());
  run.dump = cloud::DumpStore(warehouse.index_store());
  run.fingerprint = cloud::FingerprintStore(warehouse.index_store());
  run.objects.clear();
  run.env().s3().ForEachObject([&](const std::string& bucket,
                                   const std::string& key,
                                   const std::string& data) {
    if (bucket != warehouse.config().data_bucket) return;
    run.objects.push_back(StrFormat(
        "%s|%zu|%016llx", key.c_str(), data.size(),
        static_cast<unsigned long long>(Fnv1a64(data))));
  });
  run.usage = cloud::Usage();
  run.bill = 0;
  run.trace.clear();
  std::vector<cloud::CloudEnv*> envs;
  for (const auto& env : run.deployment.retired) envs.push_back(env.get());
  envs.push_back(&run.env());
  for (cloud::CloudEnv* env : envs) {
    run.usage += env->meter().usage();
    run.bill += env->meter().ComputeBill().total();
    run.trace += env->tracer().Canonical();
    ExpectSpanCostConserved(*env);
  }
}

/// Runs `queries` as one batch on the run's deployment (none: no batch)
/// and captures the run anew.
inline void RunQueries(Outcome& run, const std::vector<std::string>& queries) {
  if (!queries.empty()) {
    const cloud::Usage before = run.env().meter().Snapshot();
    auto report = run.warehouse().ExecuteQueries(queries);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    run.queries = report.ok() ? std::move(report).value() : QueryRunReport();
    run.query_usage = run.env().meter().Snapshot() - before;
    run.rows.clear();
    for (const QueryOutcome& outcome : run.queries.outcomes) {
      run.rows.push_back(outcome.result.rows);
    }
  }
  Capture(run);
}

/// Deploys, indexes (when the warehouse has an index), runs after_index
/// and the queries.
inline Outcome RunScenario(const Scenario& scenario) {
  Outcome run;
  run.deployment = Deploy(scenario);
  if (scenario.warehouse.use_index) {
    const cloud::Usage before = run.env().meter().Snapshot();
    auto report = run.warehouse().RunIndexers();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (report.ok()) run.report = report.value();
    run.index_usage = run.env().meter().Snapshot() - before;
  }
  run.index_end = run.warehouse().front_end().now();
  if (scenario.after_index) scenario.after_index(run);
  RunQueries(run, scenario.queries);
  return run;
}

/// What a crashed front end's successor finds: a fresh cloud restored
/// from a snapshot of the run's one, and a warehouse of the same config,
/// without crash plan, attached to it.  The old cloud is retired.
inline void Restart(Outcome& run) {
  Deployment& d = run.deployment;
  auto restored = std::make_unique<cloud::CloudEnv>(d.env->config());
  restored->tracer().set_enabled(true);
  EXPECT_TRUE(
      cloud::RestoreSnapshot(cloud::SerializeSnapshot(*d.env), restored.get())
          .ok());
  WarehouseConfig config = d.warehouse->config();
  config.crash_plan = nullptr;
  auto attached = std::make_unique<Warehouse>(restored.get(), config);
  EXPECT_TRUE(attached->AttachToExistingCloud().ok());
  d.warehouse = std::move(attached);
  d.retired.push_back(std::move(d.env));
  d.env = std::move(restored);
}

/// Converged state and answers: index items, document bucket, rows.
inline void ExpectSameState(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.dump, want.dump);
  EXPECT_EQ(got.objects, want.objects);
  EXPECT_EQ(got.rows, want.rows);
}

inline std::string UsageText(const cloud::Usage& usage) {
  std::ostringstream out;
  out.precision(17);
  usage.ForEachField([&out](const char* name, auto value) {
    out << name << '=' << value << '\n';
  });
  return out.str();
}

inline std::string ReportText(const IndexingRunReport& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.documents << ' ' << r.extraction_micros << ' ' << r.upload_micros
      << ' ' << r.makespan << ' ' << r.extract_stats.entries << ' '
      << r.extract_stats.items << ' ' << r.extract_stats.payload_bytes << ' '
      << r.index_put_units << ' ' << r.redeliveries << ' ' << r.dead_lettered
      << ' ' << r.poisoned;
  return out.str();
}

inline std::string QueriesText(const QueryRunReport& r) {
  std::ostringstream out;
  out.precision(17);
  const auto table = [&out](const Rows& rows) {
    for (const auto& row : rows) {
      for (const std::string& cell : row) out << cell << '\t';
      out << '\n';
    }
  };
  for (const QueryOutcome& q : r.outcomes) {
    out << q.id << ' ' << q.query_text << '\n';
    table(q.result.rows);
    table(q.result.row_uris);
    for (const bool xml : q.result.xml_columns) out << xml;
    const index::LookupStats& l = q.lookup;
    out << '\n'
        << q.docs_fetched << ' ' << q.docs_from_index << ' '
        << q.timings.index_get << ' ' << q.timings.plan_exec << ' '
        << q.timings.transfer_eval << ' ' << q.timings.total << ' '
        << l.keys_looked_up << ' ' << l.items_fetched << ' '
        << l.bytes_fetched << ' ' << l.uri_merge_ops << ' ' << l.paths_tested
        << ' ' << l.twig_id_ops << ' ' << q.index_get_units << ' '
        << q.degraded << ' ' << q.scan_docs << ' ' << q.chosen_path << ' '
        << q.estimated_cost_usd << ' ' << q.estimated_requests << ' '
        << q.actual_cost_usd << ' ' << q.actual_requests << ' '
        << q.planner_fallbacks << ' ' << q.shed << ' ' << q.tenant << '\n';
  }
  out << r.makespan << ' ' << r.degraded_queries << ' ' << r.breaker_opens
      << ' ' << r.planner_fallbacks << ' ' << r.shed_queries;
  return out.str();
}

/// Every Outcome field, and the snapshot of the cloud each run left.
inline void ExpectIdentical(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(ReportText(got.report), ReportText(want.report));
  EXPECT_EQ(got.index_end, want.index_end);
  EXPECT_EQ(UsageText(got.index_usage), UsageText(want.index_usage));
  ExpectSameState(want, got);
  EXPECT_EQ(QueriesText(got.queries), QueriesText(want.queries));
  EXPECT_EQ(UsageText(got.query_usage), UsageText(want.query_usage));
  EXPECT_EQ(UsageText(got.usage), UsageText(want.usage));
  EXPECT_EQ(got.bill, want.bill);
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.notes, want.notes);
  EXPECT_EQ(Fnv1a64(cloud::SerializeSnapshot(got.env())),
            Fnv1a64(cloud::SerializeSnapshot(want.env())));
}

/// Runs `scenario` at host_threads 1 and 8; returns {serial, parallel}.
inline std::pair<Outcome, Outcome> ExpectSerialEqualsParallel(
    Scenario scenario) {
  scenario.warehouse.host_threads = 1;
  Outcome serial = RunScenario(scenario);
  scenario.warehouse.host_threads = 8;
  Outcome parallel = RunScenario(scenario);
  ExpectIdentical(serial, parallel);
  return {std::move(serial), std::move(parallel)};
}

}  // namespace webdex::engine

#endif  // WEBDEX_TESTS_SCENARIO_H_
