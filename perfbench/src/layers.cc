// The traced run: the workload's own inputs re-issued through each
// layer's public functions, every call wrapped in a host span from the
// benchmark's side (no instrumentation inside the library).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "index/entry.h"
#include "index/strategy.h"
#include "inputs.h"
#include "query/parser.h"
#include "spans.h"
#include "workloads.h"
#include "xml/parser.h"

namespace webdex::perfbench {
namespace {

constexpr char kProbeQueue[] = "perfbench-probe";
constexpr size_t kMaxProbeKeys = 2000;
constexpr int kQueryPasses = 3;
constexpr int kCompactRounds = 3;
constexpr int kMinOverheadPairs = 3;
constexpr int kMaxOverheadPairs = 50;

double Per(double num, double den) { return den > 0 ? num / den : 0; }

/// Placeholder for a Result assigned inside a span's scope.
Status NotRun() { return Status::FailedPrecondition("not run"); }

class TracedRun {
 public:
  TracedRun(const WorkloadSpec& spec, const RunOptions& opt)
      : spec_(spec),
        opt_(opt),
        corpus_config_(spec.corpus),
        options_(engine::WarehouseConfig().extract) {}

  Result<RunResult> Run();

 private:
  Status Prepare();
  Status BuildIndex();
  void DocumentSweep();
  void KvGetSweep();
  void QuerySweep();
  Status CompactRounds();
  Status TracerOverhead();
  void Report();

  const WorkloadSpec& spec_;
  const RunOptions& opt_;
  const xmark::GeneratorConfig corpus_config_;
  SpanRecorder spans_;
  RunResult result_;
  uint64_t request_ = 0;

  std::vector<xmark::GeneratedDocument> docs_;
  std::vector<query::Query> queries_;
  std::vector<uint64_t> digests_;
  ScanOracle oracle_;
  const index::ExtractOptions options_;
  std::unique_ptr<index::IndexingStrategy> strategy_;
  /// `built_`: the workload's index, built serially by RunIndexers.
  /// `sink_`: an empty deployment of the same layout receiving the
  /// document sweep's items.
  Deployment built_, sink_;

  double corpus_mb_ = 0;
  double items_ = 0, item_bytes_ = 0;
  std::map<std::string, std::vector<std::string>> sink_keys_;
  double probe_keys_ = 0;
  double lookup_docs_ = 0, useful_docs_ = 0, result_bytes_ = 0;
  double ddb_requests_ = 0, query_ops_ = 0;
  double gc_items_ = 0;
  double overhead_pct_ = 0;
};

Status TracedRun::Prepare() {
  docs_ = xmark::XmarkGenerator(corpus_config_).GenerateAll();
  auto queries = ParseQueries();
  if (!queries.ok()) return queries.status();
  queries_ = std::move(queries).value();
  for (const auto& doc : docs_) {
    Status status = oracle_.Put(doc.uri, doc.text);
    if (!status.ok()) return status;
    corpus_mb_ += static_cast<double>(doc.text.size()) / (1024.0 * 1024.0);
  }
  for (const auto& q : queries_) {
    digests_.push_back(RowDigest(oracle_.Evaluate(q)));
  }
  strategy_ = index::IndexingStrategy::Create(spec_.strategy);
  // Intern every key once, so the build and the sweep below both run
  // against a warm interner.
  for (const auto& doc : docs_) {
    index::ExtractDocIndex(*oracle_.Find(doc.uri), options_);
  }
  return Status::OK();
}

Status TracedRun::BuildIndex() {
  // Serial (host_threads = 1), so RunIndexers' wall time is directly
  // comparable with the sum of the per-layer spans of the sweep.
  auto built = DeployEmpty(spec_, opt_.seed, /*host_threads=*/1);
  if (!built.ok()) return built.status();
  built_ = std::move(built).value();
  for (const auto& doc : docs_) {
    Status status = built_.warehouse->SubmitDocument(doc.uri, doc.text);
    if (!status.ok()) return status;
  }
  Result<engine::IndexingRunReport> report = NotRun();
  {
    ScopedSpan span(&spans_, "engine.run_indexers", 0);
    report = built_.warehouse->RunIndexers();
  }
  if (!report.ok()) return report.status();
  auto sink = DeployEmpty(spec_, opt_.seed, /*host_threads=*/1);
  if (!sink.ok()) return sink.status();
  sink_ = std::move(sink).value();
  return built_.env->sqs().CreateQueue(kProbeQueue);
}

void TracedRun::DocumentSweep() {
  engine::Warehouse& wh = *built_.warehouse;
  cloud::KvStore& sink_store = sink_.warehouse->index_store();
  for (const auto& doc : docs_) {
    const uint64_t req = ++request_;
    ScopedSpan op(&spans_, "op.doc", req);
    Result<std::string> fetched = NotRun();
    {
      ScopedSpan span(&spans_, "s3.get", req);
      fetched = built_.env->s3().Get(wh.front_end(), wh.config().data_bucket,
                                     doc.uri);
    }
    Result<xml::Document> parsed = NotRun();
    {
      ScopedSpan span(&spans_, "xml.parse", req);
      parsed = xml::ParseDocument(doc.uri, doc.text);
    }
    if (!fetched.ok() || fetched.value() != doc.text || !parsed.ok()) {
      result_.Count(false);
      continue;
    }
    index::DocIndex doc_index;
    {
      ScopedSpan span(&spans_, "index.extract", req);
      doc_index = index::ExtractDocIndex(parsed.value(), options_);
    }
    Rng uuid_rng = Rng::ForKey(opt_.seed, doc.uri);
    index::ExtractStats stats;
    Result<std::vector<index::TableItems>> items = NotRun();
    {
      ScopedSpan span(&spans_, "index.items", req);
      items = strategy_->ExtractItems(parsed.value(), doc_index, options_,
                                      sink_store, uuid_rng, &stats);
    }
    if (!items.ok()) {
      result_.Count(false);
      continue;
    }
    for (const auto& table : items.value()) {
      items_ += static_cast<double>(table.items.size());
      for (const auto& item : table.items) {
        item_bytes_ += static_cast<double>(item.SizeBytes());
      }
    }
    Status put;
    {
      ScopedSpan span(&spans_, "kv.put", req);
      for (const auto& table : items.value()) {
        if (!put.ok()) break;
        put = sink_store.BatchPut(sink_.warehouse->front_end(), table.table,
                                  table.items);
      }
    }
    for (const auto& table : items.value()) {
      auto& keys = sink_keys_[table.table];
      for (const auto& item : table.items) keys.push_back(item.hash_key);
    }
    bool round_trip = false;
    {
      ScopedSpan span(&spans_, "sqs.round_trip", req);
      cloud::QueueService& sqs = built_.env->sqs();
      if (sqs.Send(wh.front_end(), kProbeQueue, doc.uri).ok()) {
        auto got = sqs.Receive(wh.front_end(), kProbeQueue);
        round_trip = got.ok() && got.value().has_value() &&
                     sqs.Delete(wh.front_end(), kProbeQueue,
                                got.value()->receipt)
                         .ok();
      }
    }
    result_.Count(put.ok() && round_trip);
  }
}

void TracedRun::KvGetSweep() {
  cloud::KvStore& store = sink_.warehouse->index_store();
  const size_t page = static_cast<size_t>(store.BatchGetLimit());
  Rng rng(opt_.seed ^ 0x6b76ull);
  for (auto& [table, keys] : sink_keys_) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    // A seeded sample, the same size for every table.
    std::vector<std::string> sample;
    for (size_t i = 0; i < std::min(kMaxProbeKeys, keys.size()); ++i) {
      sample.push_back(keys[rng.NextBelow(keys.size())]);
    }
    for (size_t begin = 0; begin < sample.size(); begin += page) {
      const std::vector<std::string> batch(
          sample.begin() + static_cast<std::ptrdiff_t>(begin),
          sample.begin() + static_cast<std::ptrdiff_t>(
                               std::min(sample.size(), begin + page)));
      Result<std::vector<cloud::Item>> got = NotRun();
      {
        ScopedSpan span(&spans_, "kv.batch_get", 0);
        got = store.BatchGet(sink_.warehouse->front_end(), table, batch);
      }
      probe_keys_ += static_cast<double>(batch.size());
      result_.Count(got.ok() && got.value().size() >= batch.size());
    }
  }
}

void TracedRun::QuerySweep() {
  engine::Warehouse& wh = *built_.warehouse;
  for (int pass = 0; pass < kQueryPasses; ++pass) {
    for (size_t q = 0; q < queries_.size(); ++q) {
      const uint64_t req = ++request_;
      const std::string& text = QueryTexts()[q];
      ScopedSpan op(&spans_, "op.query", req);
      Result<query::Query> parsed = NotRun();
      {
        ScopedSpan span(&spans_, "query.parse", req);
        parsed = query::ParseQuery(text);
      }
      Result<std::string> plan = NotRun();
      {
        ScopedSpan span(&spans_, "planner.plan", req);
        plan = wh.ExplainQuery(text);
      }
      if (!parsed.ok() || !plan.ok()) {
        result_.Count(false);
        continue;
      }
      const auto view = wh.GenerationSnapshot();
      const uint64_t requests = built_.env->meter().usage().ddb_get_requests;
      std::set<std::string> uris;
      bool ok = true;
      {
        ScopedSpan span(&spans_, "index.lookup", req);
        for (const auto& pattern : parsed.value().patterns()) {
          index::LookupStats stats;
          auto found = strategy_->LookupPattern(
              wh.front_end(), wh.index_store(), pattern, options_, &stats,
              view.get());
          if (!found.ok()) {
            ok = false;
            break;
          }
          lookup_docs_ += static_cast<double>(found.value().size());
          uris.insert(found.value().begin(), found.value().end());
        }
      }
      ddb_requests_ += static_cast<double>(
          built_.env->meter().usage().ddb_get_requests - requests);
      std::vector<const xml::Document*> docs;
      for (const auto& uri : uris) {
        if (const xml::Document* doc = oracle_.Find(uri)) docs.push_back(doc);
      }
      query::QueryResult result;
      {
        ScopedSpan span(&spans_, "query.eval", req);
        result = query::Evaluator::Evaluate(parsed.value(), docs);
      }
      query::Evaluator::ConsumeWorkStats();
      std::string xml;
      {
        ScopedSpan span(&spans_, "xml.serialize", req);
        xml = result.ToXml();
      }
      result_bytes_ += static_cast<double>(xml.size());
      useful_docs_ += static_cast<double>(result.ContributingDocuments());
      query_ops_ += 1;
      result_.Count(ok && RowDigest(result) == digests_[q]);
    }
  }
}

Status TracedRun::CompactRounds() {
  engine::Warehouse& wh = *built_.warehouse;
  Rng rng(opt_.seed ^ 0x636f6dull);
  const auto n = static_cast<uint64_t>(docs_.size());
  // Small corpora (smoke scale) touch at most half their documents.
  const int max_upserts =
      std::min(spec_.upserts_per_round, static_cast<int>(n / 2));
  const int max_deletes = std::min(
      spec_.deletes_per_round, std::max(1, static_cast<int>(n / 8)));
  std::set<std::string> deleted;
  for (int round = 0; round < kCompactRounds; ++round) {
    const size_t want = std::min(static_cast<size_t>(max_upserts + max_deletes),
                                 docs_.size() - deleted.size());
    std::set<uint64_t> touched;
    while (touched.size() < want) {
      const uint64_t doc = rng.NextBelow(n);
      if (deleted.count(docs_[doc].uri) == 0) touched.insert(doc);
    }
    int upserts = 0;
    for (const uint64_t doc : touched) {
      const std::string& uri = docs_[doc].uri;
      Status status;
      if (upserts++ < max_upserts) {
        status = wh.UpsertDocument(
            uri, RoundDocumentText(corpus_config_, opt_.seed, 1000 + round,
                                   static_cast<int>(doc)));
      } else {
        status = wh.DeleteDocument(uri);
        deleted.insert(uri);
      }
      if (!status.ok()) return status;
    }
    auto committed = wh.RunIndexers();
    if (!committed.ok()) return committed.status();
    const uint64_t gc = built_.env->meter().usage().compact_gc_items;
    Result<engine::CompactReport> pass = NotRun();
    {
      ScopedSpan span(&spans_, "compact.pass", 0);
      pass = wh.Compact(/*full=*/false);
    }
    if (!pass.ok()) return pass.status();
    gc_items_ +=
        static_cast<double>(built_.env->meter().usage().compact_gc_items - gc);
  }
  return Status::OK();
}

Status TracedRun::TracerOverhead() {
  // The workload's unit, alternately with the engine's virtual tracer off
  // and on, for the run's time budget; end-to-end runs keep it off.
  std::vector<double> off_ms, on_ms;
  const Stopwatch budget;
  for (int pair = 0;
       pair < kMinOverheadPairs ||
       (pair < kMaxOverheadPairs && budget.Seconds() < opt_.seconds);
       ++pair) {
    for (const bool on : {false, true}) {
      const char* name = on ? "trace.on" : "trace.off";
      if (spec_.name == "build") {
        auto d = DeployEmpty(spec_, opt_.seed, opt_.host_threads);
        if (!d.ok()) return d.status();
        d.value().env->tracer().set_enabled(on);
        const Stopwatch watch;
        {
          ScopedSpan span(&spans_, name, 0);
          Status status = LoadCorpus(*d.value().warehouse, docs_);
          if (!status.ok()) return status;
        }
        (on ? on_ms : off_ms).push_back(watch.Ms());
      } else {
        // Query and mutate: one cycle of q1-q10 over the built index.
        built_.env->tracer().set_enabled(on);
        const Stopwatch watch;
        {
          ScopedSpan span(&spans_, name, 0);
          for (const std::string& text : QueryTexts()) {
            auto outcome = built_.warehouse->ExecuteQuery(text);
            if (!outcome.ok()) return outcome.status();
          }
        }
        (on ? on_ms : off_ms).push_back(watch.Ms());
        built_.env->tracer().set_enabled(false);
        built_.env->tracer().Clear();
      }
    }
  }
  overhead_pct_ = 100.0 * Per(Median(on_ms) - Median(off_ms), Median(off_ms));
  return Status::OK();
}

void TracedRun::Report() {
  const std::map<std::string, LayerTotals> t = spans_.Totals();
  const auto total = [&t](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? LayerTotals{} : it->second;
  };
  const auto n_docs = static_cast<double>(total("op.doc").calls);
  const LayerTotals parse = total("xml.parse");
  const LayerTotals extract = total("index.extract");
  const LayerTotals items = total("index.items");
  const LayerTotals put = total("kv.put");
  const double run_ms = total("engine.run_indexers").total_ms;
  const auto share = [run_ms](const LayerTotals& l) {
    return 100.0 * Per(l.total_ms, run_ms);
  };
  RunResult& r = result_;
  const auto allocs = [&r](const char* name, double count, double per) {
    if (kCountsAllocs) r.Add(name, Per(count, per), "count");
  };
  r.Add("xml.parse_ms_per_mb", Per(parse.total_ms, corpus_mb_), "ms/MB");
  allocs("xml.parse_allocs_per_doc", static_cast<double>(parse.allocs), n_docs);
  r.Add("index.extract_ms_per_doc", Per(extract.total_ms, n_docs), "ms");
  allocs("index.extract_allocs_per_doc", static_cast<double>(extract.allocs),
         n_docs);
  r.Add("index.items_ms_per_doc", Per(items.total_ms, n_docs), "ms");
  r.Add("index.items_per_doc", Per(items_, n_docs), "count");
  r.Add("index.item_bytes_per_doc", Per(item_bytes_, n_docs), "B");
  r.Add("kv.put_us_per_item", Per(put.total_ms * 1e3, items_), "us");
  allocs("kv.put_allocs_per_item", static_cast<double>(put.allocs), items_);
  r.Add("kv.get_us_per_key",
        Per(total("kv.batch_get").total_ms * 1e3, probe_keys_), "us");
  r.Add("kv.requests_per_query", Per(ddb_requests_, query_ops_), "count");
  r.Add("index.lookup_ms_per_query",
        Per(total("index.lookup").total_ms, query_ops_), "ms");
  r.Add("index.docs_per_query", Per(lookup_docs_, query_ops_), "count");
  r.Add("index.useful_doc_ratio", Per(useful_docs_, lookup_docs_), "ratio");
  r.Add("planner.plan_ms_per_query",
        Per(total("planner.plan").total_ms, query_ops_), "ms");
  r.Add("query.parse_us_per_query",
        Per(total("query.parse").total_ms * 1e3, query_ops_), "us");
  r.Add("query.eval_ms_per_query",
        Per(total("query.eval").total_ms, query_ops_), "ms");
  r.Add("query.result_bytes_per_query", Per(result_bytes_, query_ops_), "B");
  r.Add("s3.get_us_per_doc", Per(total("s3.get").total_ms * 1e3, n_docs),
        "us");
  r.Add("sqs.us_per_message",
        Per(total("sqs.round_trip").total_ms * 1e3, n_docs), "us");
  r.Add("engine.run_indexers_ms", run_ms, "ms");
  r.Add("engine.parse_share_pct", share(parse), "%");
  r.Add("engine.extract_share_pct", share(extract), "%");
  r.Add("engine.items_share_pct", share(items), "%");
  r.Add("engine.kv_put_share_pct", share(put), "%");
  r.Add("engine.loop_residual_pct",
        100.0 - share(parse) - share(extract) - share(items) - share(put),
        "%");
  const LayerTotals compact = total("compact.pass");
  r.Add("compact.ms_per_pass",
        Per(compact.total_ms, static_cast<double>(compact.calls)), "ms");
  r.Add("compact.gc_items_per_pass",
        Per(gc_items_, static_cast<double>(compact.calls)), "count");
  r.Add("trace.overhead_pct", overhead_pct_, "%");
}

Result<RunResult> TracedRun::Run() {
  Status status = Prepare();
  if (status.ok()) status = BuildIndex();
  if (!status.ok()) return status;
  DocumentSweep();
  KvGetSweep();
  QuerySweep();
  status = CompactRounds();
  if (status.ok()) status = TracerOverhead();
  if (!status.ok()) return status;
  Report();
  for (const auto& [name, totals] : spans_.Totals()) {
    std::printf("span %-22s calls %7llu total_ms %10.3f self_ms %10.3f "
                "allocs %llu\n",
                name.c_str(), static_cast<unsigned long long>(totals.calls),
                totals.total_ms, totals.self_ms,
                static_cast<unsigned long long>(totals.allocs));
  }
  if (!opt_.spans_path.empty() && !spans_.WriteJsonl(opt_.spans_path)) {
    return Status::IOError("cannot write " + opt_.spans_path);
  }
  return std::move(result_);
}

}  // namespace

Result<RunResult> RunTraced(const WorkloadSpec& spec,
                            const RunOptions& options) {
  return TracedRun(spec, options).Run();
}

}  // namespace webdex::perfbench
