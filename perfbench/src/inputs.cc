#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "query/parser.h"
#include "xml/parser.h"

namespace webdex::perfbench {

bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "build") {
    // Table 4's indexing corpus: few large full-site documents.
    s.strategy = index::StrategyKind::k2LUPI;
    s.corpus.split_sections = false;
    s.corpus.num_documents = smoke ? 6 : 60;
    s.corpus.entities_per_document = smoke ? 40 : 600;
    s.query_instances = s.index_instances;  // only the oracle's queries
    s.fixed_units = smoke ? 2 : 3;
  } else if (name == "query") {
    // Table 5 / Fig. 9's fragment corpus, queried by one L instance.
    s.strategy = index::StrategyKind::k2LUPI;
    s.corpus.split_sections = true;
    s.corpus.num_documents = smoke ? 24 : 240;
    s.corpus.entities_per_document = smoke ? 10 : 40;
    s.fixed_units = smoke ? 2 : 5;
  } else if (name == "mutate") {
    // Unsharded: Warehouse::Compact fails on sharded layouts (README.md).
    s.strategy = index::StrategyKind::kLUP;
    s.arch.shards = 1;
    s.arch.replicas = 1;
    s.corpus.split_sections = true;
    s.corpus.num_documents = smoke ? 24 : 240;
    s.corpus.entities_per_document = smoke ? 10 : 40;
    s.query_instances = s.index_instances;
    s.upserts_per_round = smoke ? 4 : 8;
    s.deletes_per_round = smoke ? 1 : 2;
    s.fixed_units = smoke ? 2 : 16;
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

const std::vector<std::string>& QueryTexts() {
  static const std::vector<std::string>* queries = new std::vector<
      std::string>{
      "//regions//item[/@id='item42', //name:val]",
      "//closed_auction[/annotation:cont, /annotation/description~'amber']",
      "//item[/name:val, /mailbox/mail/from:val, /description~'lantern']",
      "//open_auctions/open_auction[/initial:val, /reserve, /privacy, "
      "/annotation/description~'obelisk']",
      "//person[/name:val, /address[/city='Paris'], /creditcard]",
      "//open_auction[/annotation/description~'gossamer', /seller]",
      "//item[/description/name:val]",
      "//open_auction[/seller/@person#s, /initial:val, "
      "/annotation/description~'marble']; "
      "//people/person[/@id#p, /name:val] where #s=#p",
      "//closed_auction[/itemref/@item#i, /price:val, "
      "/annotation/description~'laurel']; "
      "//regions//item[/@id#j, //name:val] where #i=#j",
      "//person[/watches/watch/@open_auction#w, /name:val, "
      "/address/country='France']; "
      "//open_auction[/@id#a, /current:val] where #w=#a",
  };
  return *queries;
}

std::vector<int> SeededOrder(Rng& rng, int n) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<int>(rng.NextBelow(static_cast<uint64_t>(i + 1)));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  return order;
}

std::string RoundDocumentText(const xmark::GeneratorConfig& corpus,
                              uint64_t seed, int round, int doc_index) {
  xmark::GeneratorConfig config = corpus;
  config.seed = Rng::ForKey(seed, "round:" + std::to_string(round)).Next();
  return xmark::XmarkGenerator(config).Generate(doc_index).text;
}

namespace {

void Mix(uint64_t* h, const std::string& bytes) {
  // Length prefix, so ("ab","c") and ("a","bc") differ.
  for (size_t n = bytes.size(), i = 0; i < 8; ++i, n >>= 8) {
    *h = (*h ^ (n & 0xff)) * 0x100000001b3ull;
  }
  for (const char c : bytes) {
    *h = (*h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
}

}  // namespace

uint64_t RowDigest(const query::QueryResult& result) {
  std::vector<const std::vector<std::string>*> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return *a < *b; });
  uint64_t h = 0xcbf29ce484222325ull;
  Mix(&h, std::to_string(rows.size()));
  for (const auto* row : rows) {
    Mix(&h, std::to_string(row->size()));
    for (const auto& cell : *row) Mix(&h, cell);
  }
  return h;
}

Status ScanOracle::Put(const std::string& uri, const std::string& text) {
  auto doc = xml::ParseDocument(uri, text);
  if (!doc.ok()) return doc.status();
  docs_[uri] = std::make_unique<xml::Document>(std::move(doc).value());
  return Status::OK();
}

const xml::Document* ScanOracle::Find(const std::string& uri) const {
  const auto it = docs_.find(uri);
  return it == docs_.end() ? nullptr : it->second.get();
}

query::QueryResult ScanOracle::Evaluate(const query::Query& query) const {
  std::vector<const xml::Document*> docs;
  docs.reserve(docs_.size());
  for (const auto& [uri, doc] : docs_) docs.push_back(doc.get());
  query::QueryResult result = query::Evaluator::Evaluate(query, docs);
  // The engine charges evaluation work from these thread-local counters;
  // drain them so the oracle's scan is never billed to a later query.
  query::Evaluator::ConsumeWorkStats();
  return result;
}

Result<std::vector<query::Query>> ParseQueries() {
  std::vector<query::Query> queries;
  for (const std::string& text : QueryTexts()) {
    auto parsed = query::ParseQuery(text);
    if (!parsed.ok()) return parsed.status();
    queries.push_back(std::move(parsed).value());
  }
  return queries;
}

Result<Deployment> DeployEmpty(const WorkloadSpec& spec, uint64_t seed,
                               int host_threads) {
  cloud::CloudConfig cloud_config;
  cloud_config.arch = spec.arch;
  cloud_config.seed = seed;
  Deployment d;
  d.env = std::make_unique<cloud::CloudEnv>(cloud_config);
  engine::WarehouseConfig config;
  config.strategy = spec.strategy;
  config.num_instances = spec.index_instances;
  config.instance_type = cloud::InstanceType::kLarge;
  config.host_threads = host_threads;
  d.warehouse = std::make_unique<engine::Warehouse>(d.env.get(), config);
  Status status = d.warehouse->Setup();
  if (!status.ok()) return status;
  return d;
}

Status LoadCorpus(engine::Warehouse& warehouse,
                  const std::vector<xmark::GeneratedDocument>& docs) {
  for (const auto& doc : docs) {
    Status status = warehouse.SubmitDocument(doc.uri, doc.text);
    if (!status.ok()) return status;
  }
  return warehouse.RunIndexers().status();
}

void SwapFleet(int instances, Deployment* deployment) {
  engine::WarehouseConfig config = deployment->warehouse->config();
  config.num_instances = instances;
  auto fresh =
      std::make_unique<engine::Warehouse>(deployment->env.get(), config);
  fresh->AdoptExistingData(*deployment->warehouse);
  deployment->warehouse = std::move(fresh);
}

double Dollars(cloud::CloudEnv& env, const cloud::Usage& before) {
  return env.meter().ComputeBill(env.meter().Snapshot() - before).total();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace webdex::perfbench
