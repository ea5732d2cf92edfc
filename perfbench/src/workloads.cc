#include "workloads.h"

#include <sys/resource.h>

#include <numeric>
#include <set>
#include <utility>

#include "alloc_counter.h"
#include "spans.h"

namespace webdex::perfbench {

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

namespace {

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// One timed ExecuteQuery with its oracle check.
struct QuerySample {
  double host_ms = 0;
  double usd = 0;
  double allocs = 0;
  double vtime_ms = 0;
  bool ok = false;
};

QuerySample TimedQuery(Deployment& d, const std::string& text,
                       uint64_t expected_digest) {
  QuerySample s;
  const cloud::Usage before = d.env->meter().Snapshot();
  const uint64_t allocs = AllocCount();
  const Stopwatch watch;
  auto outcome = d.warehouse->ExecuteQuery(text);
  s.host_ms = watch.Ms();
  s.allocs = static_cast<double>(AllocCount() - allocs);
  s.usd = Dollars(*d.env, before);
  if (outcome.ok()) {
    s.vtime_ms = static_cast<double>(outcome.value().timings.total) / 1e3;
    s.ok = RowDigest(outcome.value().result) == expected_digest;
  }
  return s;
}

/// Full-scan digests of every query over the oracle's corpus.
std::vector<uint64_t> OracleDigests(const ScanOracle& oracle,
                                    const std::vector<query::Query>& queries) {
  std::vector<uint64_t> digests;
  for (const auto& q : queries) {
    digests.push_back(RowDigest(oracle.Evaluate(q)));
  }
  return digests;
}

/// What the query and mutate workloads start from: the corpus indexed in
/// a fresh cloud, and the oracle's answers over it.
struct IndexedCorpus {
  Deployment d;
  ScanOracle oracle;
  std::vector<uint64_t> digests;
  std::vector<std::string> uris;
};

/// Sets the corpus up kSetupRepeats times, timing each into `setup_s`,
/// and keeps the last.  Each set-up ends with one checked cycle of q1-q10
/// on `query_instances`, which warms the engine's DOM cache.
Result<IndexedCorpus> SetUpIndexedCorpus(
    const WorkloadSpec& spec, const RunOptions& opt,
    const std::vector<query::Query>& queries, RunResult* r,
    std::vector<double>* setup_s) {
  IndexedCorpus kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch watch;
    IndexedCorpus c;
    const auto docs = xmark::XmarkGenerator(spec.corpus).GenerateAll();
    auto deployed = DeployEmpty(spec, opt.seed, opt.host_threads);
    if (!deployed.ok()) return deployed.status();
    c.d = std::move(deployed).value();
    Status status = LoadCorpus(*c.d.warehouse, docs);
    if (!status.ok()) return status;
    if (spec.query_instances != spec.index_instances) {
      SwapFleet(spec.query_instances, &c.d);
    }
    for (const auto& doc : docs) {
      status = c.oracle.Put(doc.uri, doc.text);
      if (!status.ok()) return status;
      c.uris.push_back(doc.uri);
    }
    c.digests = OracleDigests(c.oracle, queries);
    for (size_t q = 0; q < queries.size(); ++q) {
      r->Count(TimedQuery(c.d, QueryTexts()[q], c.digests[q]).ok);
    }
    setup_s->push_back(watch.Seconds());
    kept = std::move(c);
  }
  return kept;
}

// --- build ------------------------------------------------------------------

Result<RunResult> RunBuild(const WorkloadSpec& spec, const RunOptions& opt,
                           const std::vector<query::Query>& queries) {
  RunResult r;
  const xmark::GeneratorConfig& corpus_config = spec.corpus;
  std::vector<xmark::GeneratedDocument> corpus;
  std::vector<uint64_t> oracle;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch watch;
    auto docs = xmark::XmarkGenerator(corpus_config).GenerateAll();
    ScanOracle scan;
    for (const auto& doc : docs) {
      Status status = scan.Put(doc.uri, doc.text);
      if (!status.ok()) return status;
    }
    std::vector<uint64_t> digests = OracleDigests(scan, queries);
    auto deployment = DeployEmpty(spec, opt.seed, opt.host_threads);
    if (!deployment.ok()) return deployment.status();
    setup_s.push_back(watch.Seconds());
    if (i == 0) {
      corpus = std::move(docs);
      oracle = std::move(digests);
    } else if (digests != oracle) {
      return Status::FailedPrecondition("set-up is not deterministic");
    }
  }

  // The seed picks the order documents are submitted in, which decides
  // which simulated instance indexes which document.
  Rng order_rng(opt.seed ^ 0x6275696cull);
  const std::vector<int> order =
      SeededOrder(order_rng, static_cast<int>(corpus.size()));
  const auto n_docs = static_cast<double>(corpus.size());
  std::vector<double> rep_ms, rep_allocs;
  double usd = 0, makespan_s = 0;
  uint64_t fingerprint = 0;
  const Stopwatch budget;
  for (int rep = 0; rep < spec.fixed_units || budget.Seconds() < opt.seconds;
       ++rep) {
    auto deployed = DeployEmpty(spec, opt.seed, opt.host_threads);
    if (!deployed.ok()) return deployed.status();
    Deployment& d = deployed.value();
    std::vector<std::string> texts;
    texts.reserve(corpus.size());
    for (const int i : order) {
      texts.push_back(corpus[static_cast<size_t>(i)].text);
    }

    const cloud::Usage before = d.env->meter().Snapshot();
    const uint64_t allocs = AllocCount();
    const Stopwatch watch;
    Status status;
    for (size_t i = 0; i < corpus.size() && status.ok(); ++i) {
      status = d.warehouse->SubmitDocument(
          corpus[static_cast<size_t>(order[i])].uri, std::move(texts[i]));
    }
    auto report = status.ok() ? d.warehouse->RunIndexers()
                              : Result<engine::IndexingRunReport>(status);
    const double ms = watch.Ms();
    const auto rep_alloc_count = static_cast<double>(AllocCount() - allocs);
    const double rep_usd = Dollars(*d.env, before);

    bool ok = report.ok() && report.value().documents == corpus.size();
    if (ok) {
      // Every repetition must build the same index at the same price.
      const uint64_t fp = cloud::FingerprintStore(d.warehouse->index_store());
      const double rep_makespan =
          static_cast<double>(report.value().makespan) / 1e6;
      if (rep == 0) {
        fingerprint = fp;
        usd = rep_usd;
        makespan_s = rep_makespan;
      }
      ok = fp == fingerprint && rep_usd == usd && rep_makespan == makespan_s;
    }
    for (size_t i = 0; i < corpus.size(); ++i) r.Count(ok);
    rep_ms.push_back(ms);
    rep_allocs.push_back(rep_alloc_count);
    // Every repetition builds the same index, so answering q1-q10 over
    // the first one checks them all.
    if (!ok || rep > 0) continue;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto outcome = d.warehouse->ExecuteQuery(QueryTexts()[q]);
      r.Count(outcome.ok() && RowDigest(outcome.value().result) == oracle[q]);
    }
  }

  std::vector<double> ms_per_doc, docs_per_s;
  for (const double ms : rep_ms) {
    ms_per_doc.push_back(ms / n_docs);
    docs_per_s.push_back(n_docs / (ms / 1e3));
  }
  const double allocs_per_doc = Median(rep_allocs) / n_docs;
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("host_ms_per_op", Median(ms_per_doc), "ms");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (kCountsAllocs) r.Add("allocs_per_op", allocs_per_doc, "count");
  r.Add("usd_per_op", usd / n_docs, "usd");
  r.Add("virtual_ms_per_op", makespan_s * 1e3 / n_docs, "virtual_ms");
  r.Add("index_docs_per_s", Median(docs_per_s), "docs/s");
  if (kCountsAllocs) r.Add("allocs_per_doc", allocs_per_doc, "count");
  r.Add("usd_per_doc", usd / n_docs, "usd");
  r.Add("makespan_s", makespan_s, "virtual_s");
  r.Add("build_repetitions", static_cast<double>(rep_ms.size()), "count");
  return r;
}

// --- query ------------------------------------------------------------------

Result<RunResult> RunQuery(const WorkloadSpec& spec, const RunOptions& opt,
                           const std::vector<query::Query>& queries) {
  RunResult r;
  std::vector<double> setup_s;
  auto set_up = SetUpIndexedCorpus(spec, opt, queries, &r, &setup_s);
  if (!set_up.ok()) return set_up.status();
  Deployment& d = set_up.value().d;
  const std::vector<uint64_t>& oracle = set_up.value().digests;

  // Closed loop, one client: each cycle issues q1-q10 in a seeded order.
  Rng order_rng(opt.seed ^ 0x71756572ull);
  std::vector<double> latencies, cycle_ms_per_op, fixed_vtimes;
  double fixed_usd = 0, fixed_allocs = 0;
  const Stopwatch budget;
  for (int cycle = 0;
       cycle < spec.fixed_units || budget.Seconds() < opt.seconds; ++cycle) {
    const std::vector<int> order =
        SeededOrder(order_rng, static_cast<int>(queries.size()));
    double cycle_ms = 0;
    for (const int q : order) {
      const QuerySample s = TimedQuery(d, QueryTexts()[q], oracle[q]);
      r.Count(s.ok);
      latencies.push_back(s.host_ms);
      cycle_ms += s.host_ms;
      if (cycle < spec.fixed_units) {
        fixed_usd += s.usd;
        fixed_allocs += s.allocs;
        fixed_vtimes.push_back(s.vtime_ms);
      }
    }
    cycle_ms_per_op.push_back(cycle_ms / static_cast<double>(order.size()));
  }

  const auto fixed_queries = static_cast<double>(fixed_vtimes.size());
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("host_ms_per_op", Median(cycle_ms_per_op), "ms");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (kCountsAllocs) {
    r.Add("allocs_per_op", fixed_allocs / fixed_queries, "count");
  }
  r.Add("usd_per_op", fixed_usd / fixed_queries, "usd");
  r.Add("virtual_ms_per_op", Sum(fixed_vtimes) / fixed_queries, "virtual_ms");
  r.Add("query_p50_ms", Quantile(latencies, 0.5), "ms");
  r.Add("query_p99_ms", Quantile(latencies, 0.99), "ms");
  r.Add("query_samples", static_cast<double>(latencies.size()), "count");
  if (kCountsAllocs) {
    r.Add("allocs_per_query", fixed_allocs / fixed_queries, "count");
  }
  r.Add("usd_per_query", fixed_usd / fixed_queries, "usd");
  r.Add("query_vtime_p50_ms", Median(fixed_vtimes), "virtual_ms");
  return r;
}

// --- mutate -----------------------------------------------------------------

/// Seeded rounds of writes beside reads; see README.md.
class MutateRun {
 public:
  MutateRun(const WorkloadSpec& spec, const RunOptions& opt,
            const std::vector<query::Query>& queries)
      : spec_(spec),
        opt_(opt),
        queries_(queries),
        rng_(opt.seed ^ 0x6d757461ull) {}

  Result<RunResult> Run();

 private:
  struct UnitTotals {
    double write_ms = 0, query_ms = 0;
    double docs = 0, queries = 0;
    double write_usd = 0, query_usd = 0;
    double write_allocs = 0, query_allocs = 0;
    double vtime_ms = 0;
  };

  Status Round(int round, bool compact, UnitTotals* unit);

  const std::string& Uri(int doc) const {
    return c_.uris[static_cast<size_t>(doc)];
  }

  const WorkloadSpec& spec_;
  const RunOptions& opt_;
  const std::vector<query::Query>& queries_;
  Rng rng_;
  RunResult result_;
  /// The indexed corpus; its oracle follows every committed mutation.
  IndexedCorpus c_;
  std::vector<bool> alive_;
  std::vector<int> deleted_last_round_;
  std::vector<double> setup_s_;
  std::vector<double> latencies_;
};

Status MutateRun::Round(int round, bool compact, UnitTotals* unit) {
  // Plan (untimed): revive last round's deletions, upsert random live
  // documents, delete a few others.
  const int n = static_cast<int>(c_.uris.size());
  std::vector<int> deletes;
  std::set<int> touched;
  while (static_cast<int>(deletes.size()) < spec_.deletes_per_round) {
    const auto doc = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(n)));
    if (alive_[static_cast<size_t>(doc)] && touched.insert(doc).second) {
      deletes.push_back(doc);
    }
  }
  std::vector<int> upserts = deleted_last_round_;
  for (const int doc : upserts) touched.insert(doc);
  while (static_cast<int>(upserts.size()) < spec_.upserts_per_round) {
    const auto doc = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(n)));
    if (alive_[static_cast<size_t>(doc)] && touched.insert(doc).second) {
      upserts.push_back(doc);
    }
  }
  std::vector<std::string> texts;
  for (const int doc : upserts) {
    texts.push_back(RoundDocumentText(spec_.corpus, opt_.seed, round, doc));
  }
  std::vector<std::string> oracle_texts = texts;
  const std::vector<int> order =
      SeededOrder(rng_, static_cast<int>(queries_.size()));

  // Write phase: upserts and deletes, then the indexers commit them.
  const cloud::Usage before = c_.d.env->meter().Snapshot();
  const uint64_t allocs = AllocCount();
  const Stopwatch watch;
  Status status;
  for (size_t i = 0; i < upserts.size() && status.ok(); ++i) {
    status = c_.d.warehouse->UpsertDocument(Uri(upserts[i]), std::move(texts[i]));
  }
  for (size_t i = 0; i < deletes.size() && status.ok(); ++i) {
    status = c_.d.warehouse->DeleteDocument(Uri(deletes[i]));
  }
  auto report = status.ok() ? c_.d.warehouse->RunIndexers()
                            : Result<engine::IndexingRunReport>(status);
  double write_ms = watch.Ms();
  double write_allocs = static_cast<double>(AllocCount() - allocs);
  double write_usd = Dollars(*c_.d.env, before);
  const auto n_docs = static_cast<double>(upserts.size() + deletes.size());
  // Upserts commit as indexed documents, deletes as tombstones.
  const bool write_ok =
      report.ok() && report.value().documents == upserts.size() &&
      c_.d.env->meter().usage().tombstones_written - before.tombstones_written ==
          deletes.size();
  double vtime_ms =
      report.ok() ? static_cast<double>(report.value().makespan) / 1e3 : 0;

  // Host-side oracle follows the committed corpus (untimed).
  for (size_t i = 0; i < upserts.size(); ++i) {
    status = c_.oracle.Put(Uri(upserts[i]), oracle_texts[i]);
    if (!status.ok()) return status;
    alive_[static_cast<size_t>(upserts[i])] = true;
  }
  for (const int doc : deletes) {
    c_.oracle.Erase(Uri(doc));
    alive_[static_cast<size_t>(doc)] = false;
  }
  deleted_last_round_ = deletes;
  const std::vector<uint64_t> digests = OracleDigests(c_.oracle, queries_);

  // Read phase: a burst of q1-q10 in seeded order.
  double query_ms = 0, query_usd = 0, query_allocs = 0;
  for (const int q : order) {
    const QuerySample s = TimedQuery(c_.d, QueryTexts()[q], digests[q]);
    result_.Count(s.ok);
    latencies_.push_back(s.host_ms);
    query_ms += s.host_ms;
    query_usd += s.usd;
    query_allocs += s.allocs;
    vtime_ms += s.vtime_ms;
  }

  bool compact_ok = true;
  if (compact) {
    const cloud::Usage compact_before = c_.d.env->meter().Snapshot();
    const uint64_t compact_allocs = AllocCount();
    const cloud::Micros clock = c_.d.warehouse->front_end().now();
    const Stopwatch compact_watch;
    auto pass = c_.d.warehouse->Compact(/*full=*/false);
    write_ms += compact_watch.Ms();
    write_allocs += static_cast<double>(AllocCount() - compact_allocs);
    write_usd += Dollars(*c_.d.env, compact_before);
    vtime_ms +=
        static_cast<double>(c_.d.warehouse->front_end().now() - clock) / 1e3;
    compact_ok = pass.ok() && !pass.value().crashed && !pass.value().faulted;
  }
  for (size_t i = 0; i < upserts.size() + deletes.size(); ++i) {
    result_.Count(write_ok && compact_ok);
  }

  UnitTotals& u = *unit;
  u.write_ms += write_ms;
  u.query_ms += query_ms;
  u.docs += n_docs;
  u.queries += static_cast<double>(order.size());
  u.write_usd += write_usd;
  u.query_usd += query_usd;
  u.write_allocs += write_allocs;
  u.query_allocs += query_allocs;
  u.vtime_ms += vtime_ms;
  return Status::OK();
}

Result<RunResult> MutateRun::Run() {
  auto set_up =
      SetUpIndexedCorpus(spec_, opt_, queries_, &result_, &setup_s_);
  if (!set_up.ok()) return set_up.status();
  c_ = std::move(set_up).value();
  alive_.assign(c_.uris.size(), true);
  Status status;
  std::vector<UnitTotals> units;
  const Stopwatch budget;
  for (int u = 0; u < spec_.fixed_units || budget.Seconds() < opt_.seconds;
       ++u) {
    UnitTotals unit;
    for (int i = 0; i < spec_.rounds_per_unit; ++i) {
      const int round = u * spec_.rounds_per_unit + i;
      status = Round(round, i + 1 == spec_.rounds_per_unit, &unit);
      if (!status.ok()) return status;
    }
    units.push_back(unit);
  }

  UnitTotals fixed;
  std::vector<double> ms_per_op, docs_per_s;
  for (size_t u = 0; u < units.size(); ++u) {
    const UnitTotals& t = units[u];
    ms_per_op.push_back((t.write_ms + t.query_ms) / (t.docs + t.queries));
    docs_per_s.push_back(t.docs / (t.write_ms / 1e3));
    if (static_cast<int>(u) < spec_.fixed_units) {
      fixed.docs += t.docs;
      fixed.queries += t.queries;
      fixed.write_usd += t.write_usd;
      fixed.query_usd += t.query_usd;
      fixed.write_allocs += t.write_allocs;
      fixed.query_allocs += t.query_allocs;
      fixed.vtime_ms += t.vtime_ms;
    }
  }
  const double fixed_ops = fixed.docs + fixed.queries;
  RunResult& r = result_;
  r.Add("setup_s", Median(setup_s_), "s");
  r.Add("host_ms_per_op", Median(ms_per_op), "ms");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (kCountsAllocs) {
    r.Add("allocs_per_op",
          (fixed.write_allocs + fixed.query_allocs) / fixed_ops, "count");
  }
  r.Add("usd_per_op", (fixed.write_usd + fixed.query_usd) / fixed_ops, "usd");
  r.Add("virtual_ms_per_op", fixed.vtime_ms / fixed_ops, "virtual_ms");
  r.Add("index_docs_per_s", Median(docs_per_s), "docs/s");
  r.Add("query_p50_ms", Quantile(latencies_, 0.5), "ms");
  r.Add("query_p99_ms", Quantile(latencies_, 0.99), "ms");
  r.Add("query_samples", static_cast<double>(latencies_.size()), "count");
  if (kCountsAllocs) {
    r.Add("allocs_per_doc", fixed.write_allocs / fixed.docs, "count");
    r.Add("allocs_per_query", fixed.query_allocs / fixed.queries, "count");
  }
  r.Add("usd_per_doc", fixed.write_usd / fixed.docs, "usd");
  r.Add("usd_per_query", fixed.query_usd / fixed.queries, "usd");
  r.Add("mutation_units", static_cast<double>(units.size()), "count");
  return std::move(result_);
}

}  // namespace

Result<RunResult> RunWorkload(const WorkloadSpec& spec,
                              const RunOptions& options) {
  auto queries = ParseQueries();
  if (!queries.ok()) return queries.status();
  if (spec.name == "build") return RunBuild(spec, options, queries.value());
  if (spec.name == "query") return RunQuery(spec, options, queries.value());
  return MutateRun(spec, options, queries.value()).Run();
}

}  // namespace webdex::perfbench
