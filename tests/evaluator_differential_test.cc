// Differential suite for query::Evaluator: every query runs through the
// production evaluator and through the recursive reference matcher of
// evaluator_reference.h, and the two must agree on rows, row order,
// row URIs and the work counters that drive simulated evaluation time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "evaluator_reference.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::query {
namespace {

// q1-q10 of the benchmark's query mix (perfbench/src/inputs.cc).
const std::vector<std::string>& BenchmarkQueries() {
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

/// A corpus owned by the test, with the pointer list Evaluate takes.
struct Corpus {
  std::vector<std::unique_ptr<xml::Document>> docs;
  std::vector<const xml::Document*> ptrs;

  void Add(const std::string& uri, const std::string& text) {
    auto doc = xml::ParseDocument(uri, text);
    ASSERT_TRUE(doc.ok()) << uri << ": " << doc.status().ToString();
    docs.push_back(std::make_unique<xml::Document>(std::move(doc).value()));
    ptrs.push_back(docs.back().get());
  }
};

Corpus XmarkCorpus(bool split_sections, int num_documents, int entities) {
  xmark::GeneratorConfig config;
  config.num_documents = num_documents;
  config.entities_per_document = entities;
  config.split_sections = split_sections;
  const xmark::XmarkGenerator generator(config);
  Corpus corpus;
  for (int i = 0; i < num_documents; ++i) {
    const auto generated = generator.Generate(i);
    corpus.Add(generated.uri, generated.text);
  }
  return corpus;
}

// Items whose descriptions nest parlist/listitem to random depth, so the
// same labels recur along one root-to-leaf path.
std::string RecursiveListDocument(Rng& rng) {
  static const char* const kWords[] = {"amber", "gold", "stone", "lion",
                                       "market", "42", "17.5", "glass"};
  auto word = [&] { return std::string(kWords[rng.NextBelow(8)]); };
  auto text = [&] {
    std::string out = "<text>" + word();
    const int n = static_cast<int>(rng.NextInRange(0, 3));
    for (int i = 0; i < n; ++i) {
      const char* tag = rng.NextBool(0.5) ? "keyword" : "bold";
      out += StrFormat(" <%s>%s</%s> %s", tag, word().c_str(), tag,
                       word().c_str());
    }
    return out + "</text>";
  };
  auto parlist = [&](auto& self, int depth) -> std::string {
    std::string out = "<parlist>";
    const int items = static_cast<int>(rng.NextInRange(1, 3));
    for (int i = 0; i < items; ++i) {
      out += rng.NextBool(0.3)
                 ? StrFormat("<listitem id=\"li%d\">",
                             static_cast<int>(rng.NextBelow(6)))
                 : std::string("<listitem>");
      if (depth < 4 && rng.NextBool(0.55)) out += self(self, depth + 1);
      if (rng.NextBool(0.7)) out += text();
      if (depth < 4 && rng.NextBool(0.2)) out += self(self, depth + 1);
      out += "</listitem>";
    }
    return out + "</parlist>";
  };
  std::string out = "<site><regions>";
  const int items = static_cast<int>(rng.NextInRange(2, 4));
  for (int i = 0; i < items; ++i) {
    out += StrFormat("<item id=\"item%d\"><name>%s</name><description>",
                     static_cast<int>(rng.NextBelow(5)), word().c_str());
    out += parlist(parlist, 0);
    out += "</description></item>";
  }
  return out + "</regions></site>";
}

Corpus RecursiveCorpus(uint64_t seed, int num_documents) {
  Rng rng(seed);
  Corpus corpus;
  for (int i = 0; i < num_documents; ++i) {
    corpus.Add(StrFormat("lists-%02d.xml", i), RecursiveListDocument(rng));
  }
  return corpus;
}

/// Builds random queries from the corpus itself: pattern nodes follow
/// real root-to-node paths (some steps collapsed into descendant edges),
/// so most queries match, while label swaps and predicates make others
/// miss.  Join queries tag nodes that share a string value.
class QueryGenerator {
 public:
  QueryGenerator(const Corpus& corpus, uint64_t seed)
      : rng_(seed), docs_(corpus.ptrs) {
    std::map<std::string, std::vector<const xml::Node*>> by_value;
    for (const xml::Document* doc : corpus.ptrs) {
      for (const xml::Node& node : doc->nodes()) {
        if (node.is_text()) continue;
        nodes_.push_back(&node);
        labels_[node.is_attribute() ? 1 : 0].emplace(doc->label(node));
        const std::string value = doc->StringValue(node);
        if (doc->parent(node) != nullptr && !value.empty() &&
            value.size() < 40 && value.find('\'') == std::string::npos) {
          by_value[value].push_back(&node);
        }
      }
    }
    for (auto& [value, nodes] : by_value) {
      if (nodes.size() >= 2 && nodes.size() <= 40) {
        shared_values_.push_back(std::move(nodes));
      }
    }
  }

  std::string SinglePattern() {
    const xml::Node* root = PickRoot();
    const char* axis = rng_.NextBool(0.1) ? "/" : "//";
    return axis + NodeText(*root, 0, {});
  }

  /// Two or three patterns over nodes that share a value.  Pattern p
  /// >= 1 joins an earlier one; three-pattern queries sometimes close a
  /// triangle, so one pattern has a second join that only filters.  A
  /// tag names one node in one join, so a pattern in two joins reaches
  /// its shared-value node through two tagged branches.
  std::string Joined(int patterns) {
    std::vector<std::pair<int, int>> joins = {{0, 1}};
    if (patterns == 3) {
      const int first = static_cast<int>(rng_.NextBelow(2));
      joins.push_back({first, 2});
      if (rng_.NextBool(0.3)) joins.push_back({1 - first, 2});
    }
    std::vector<std::vector<std::string>> tags(patterns);
    std::vector<std::string> clauses;
    for (size_t j = 0; j < joins.size(); ++j) {
      const auto [left, right] = joins[j];
      const std::string l = StrFormat("#j%zul", j);
      const std::string r = StrFormat("#j%zur", j);
      tags[static_cast<size_t>(left)].push_back(l);
      tags[static_cast<size_t>(right)].push_back(r);
      clauses.push_back(rng_.NextBool(0.5) ? l + "=" + r : r + "=" + l);
    }
    const auto& nodes = shared_values_[rng_.NextBelow(shared_values_.size())];
    std::vector<std::string> texts;
    for (int p = 0; p < patterns; ++p) {
      const xml::Node* target = nodes[rng_.NextBelow(nodes.size())];
      const xml::Document& doc = DocOf(*target);
      const xml::Node* root = doc.parent(*target);
      const int up = static_cast<int>(rng_.NextBelow(2));
      for (int i = 0; i < up && doc.parent(*root) != nullptr; ++i) {
        root = doc.parent(*root);
      }
      std::vector<std::pair<const xml::Node*, std::string>> tagged;
      for (const std::string& tag : tags[static_cast<size_t>(p)]) {
        tagged.emplace_back(target, tag);
      }
      texts.push_back("//" + NodeText(*root, 1, tagged));
    }
    return Join(texts, "; ") + " where " + Join(clauses, ", ");
  }

 private:
  /// The corpus document whose node array holds `node`.
  const xml::Document& DocOf(const xml::Node& node) const {
    for (const xml::Document* doc : docs_) {
      const auto nodes = doc->nodes();
      if (!std::less<const xml::Node*>()(&node, nodes.data()) &&
          std::less<const xml::Node*>()(&node, nodes.data() + nodes.size())) {
        return *doc;
      }
    }
    ADD_FAILURE() << "node outside the corpus";
    return *docs_.front();
  }

  const xml::Node* PickRoot() {
    for (;;) {
      const xml::Node* node = nodes_[rng_.NextBelow(nodes_.size())];
      // Roots over huge subtrees make cross products the reference
      // matcher cannot enumerate in test time.
      if (node->end() - node->index() > 300 && !rng_.NextBool(0.05)) {
        continue;
      }
      if (node->is_attribute() && !rng_.NextBool(0.2)) continue;
      return node;
    }
  }

  std::string Label(const xml::Node& node) {
    if (rng_.NextBool(0.04)) {
      const auto& labels = labels_[node.is_attribute() ? 1 : 0];
      auto it = labels.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng_.NextBelow(labels.size())));
      return *it;
    }
    return std::string(DocOf(node).label(node));
  }

  /// A descendant of `node` one to three element steps below it, or null
  /// when it has no element or attribute children.
  const xml::Node* PickDescendant(const xml::Node& node) {
    const xml::Node* at = &node;
    const int steps = static_cast<int>(rng_.NextInRange(1, 3));
    for (int i = 0; i < steps; ++i) {
      std::vector<const xml::Node*> children;
      for (const xml::Node& child : DocOf(*at).children(*at)) {
        if (!child.is_text()) children.push_back(&child);
      }
      if (children.empty()) break;
      at = children[rng_.NextBelow(children.size())];
    }
    return at == &node ? nullptr : at;
  }

  std::string Predicate(const xml::Node& node) {
    const std::string value = DocOf(node).StringValue(node);
    if (value.empty()) return "";
    switch (rng_.NextBelow(3)) {
      case 0:
        if (value.size() > 60 || value.find('\'') != std::string::npos) {
          return "";
        }
        return "='" + value + "'";
      case 1: {
        std::vector<std::string> words;
        std::string word;
        for (const char c : value + " ") {
          if (std::isalnum(static_cast<unsigned char>(c))) {
            word.push_back(c);
          } else if (!word.empty()) {
            words.push_back(std::move(word));
            word.clear();
          }
        }
        if (words.empty()) return "";
        return "~'" + words[rng_.NextBelow(words.size())] + "'";
      }
      default: {
        char* end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        const double lo = end == value.c_str() ? 0 : v - rng_.NextBelow(10);
        const double hi =
            end == value.c_str() ? 100 : v + rng_.NextBelow(10);
        return StrFormat(" in%c%g,%g%c", rng_.NextBool(0.5) ? '[' : '(', lo,
                         hi, rng_.NextBool(0.5) ? ']' : ')');
      }
    }
  }

  /// The path from `ancestor` down to `node`: each intermediate step is
  /// kept as a child edge or collapsed into a descendant edge.
  std::string Path(const xml::Node& ancestor, const xml::Node& node,
                   int depth, const std::string& tag) {
    std::vector<const xml::Node*> chain;
    const xml::Document& doc = DocOf(node);
    for (const xml::Node* at = &node; at != &ancestor; at = doc.parent(*at)) {
      chain.push_back(at);
    }
    std::reverse(chain.begin(), chain.end());
    std::string out;
    bool collapsed = false;
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      if (rng_.NextBool(0.35)) {
        collapsed = true;
        continue;
      }
      out += (collapsed || rng_.NextBool(0.1)) ? "//" : "/";
      out += Label(*chain[i]);
      collapsed = false;
    }
    out += (collapsed || rng_.NextBool(0.15)) ? "//" : "/";
    std::string step = NodeText(node, depth, {});
    if (!tag.empty()) {
      // Markers precede the predicate and the branches.
      const size_t name_end = step.find_first_of(":~=[ ", 1);
      step.insert(name_end == std::string::npos ? step.size() : name_end,
                  tag);
    }
    return out + step;
  }

  /// One pattern node for `node` and random branches below it, plus one
  /// branch to each `tagged` descendant carrying its join tag.
  std::string NodeText(
      const xml::Node& node, int depth,
      const std::vector<std::pair<const xml::Node*, std::string>>& tagged) {
    std::string out = node.is_attribute() ? "@" : "";
    out += Label(node);
    if (rng_.NextBool(0.3)) {
      out += ":val";
    } else if (rng_.NextBool(0.12)) {
      out += ":cont";
    }
    if (rng_.NextBool(0.2)) out += Predicate(node);
    if (!node.is_element()) return out;
    std::vector<std::string> branches;
    for (const auto& [below, tag] : tagged) {
      branches.push_back(Path(node, *below, 3, tag));
    }
    const int width = depth >= 2 ? 0 : static_cast<int>(rng_.NextBelow(4));
    for (int i = 0; i < width; ++i) {
      if (const xml::Node* below = PickDescendant(node)) {
        branches.push_back(Path(node, *below, depth + 1, ""));
      }
    }
    std::shuffle(branches.begin(), branches.end(), UniformBits(&rng_));
    if (!branches.empty()) {
      out += '[';
      out += Join(branches, ", ");
      out += ']';
    }
    return out;
  }

  /// Adapts Rng to std::shuffle.
  struct UniformBits {
    using result_type = uint64_t;
    explicit UniformBits(Rng* rng) : rng(rng) {}
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return UINT64_MAX; }
    result_type operator()() { return rng->Next(); }
    Rng* rng;
  };

  Rng rng_;
  std::vector<const xml::Document*> docs_;
  std::vector<const xml::Node*> nodes_;
  std::set<std::string> labels_[2];
  std::vector<std::vector<const xml::Node*>> shared_values_;
};

double CountBelow(const xml::Document& doc, const PatternNode& pnode,
                  const xml::Node& node);

/// Embeddings of the pattern subtree at `pnode` with `pnode` bound to
/// `node`, counted without enumerating them: the suite skips queries
/// whose matches the reference matcher could not enumerate in test time.
double CountAt(const xml::Document& doc, const PatternNode& pnode,
               const xml::Node& node) {
  const xml::NodeKind kind = pnode.is_attribute ? xml::NodeKind::kAttribute
                                                : xml::NodeKind::kElement;
  if (node.kind() != kind || doc.label(node) != pnode.label) return 0;
  if (pnode.predicate.kind != PredicateKind::kNone &&
      !pnode.predicate.Matches(doc.StringValue(node))) {
    return 0;
  }
  double product = 1;
  for (const auto& pchild : pnode.children) {
    double sum = 0;
    for (const xml::Node& child : doc.children(node)) {
      sum += pchild->axis == Axis::kChild ? CountAt(doc, *pchild, child)
                                          : CountBelow(doc, *pchild, child);
    }
    product *= sum;
    if (product == 0) break;
  }
  return product;
}

/// Embeddings with `pnode` bound to `node` or any of its descendants.
double CountBelow(const xml::Document& doc, const PatternNode& pnode,
                  const xml::Node& node) {
  double sum = CountAt(doc, pnode, node);
  for (const xml::Node& child : doc.children(node)) {
    sum += CountBelow(doc, pnode, child);
  }
  return sum;
}

double CountEmbeddings(const TreePattern& pattern,
                       const std::vector<const xml::Document*>& docs) {
  double total = 0;
  for (const xml::Document* doc : docs) {
    total += pattern.root().axis == Axis::kChild
                 ? CountAt(*doc, pattern.root(), doc->root())
                 : CountBelow(*doc, pattern.root(), doc->root());
  }
  return total;
}

bool SameMatches(const std::vector<PatternMatch>& a,
                 const std::vector<PatternMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].uri != b[i].uri || a[i].outputs != b[i].outputs ||
        a[i].join_values != b[i].join_values) {
      return false;
    }
  }
  return true;
}

/// What one comparison saw, for the suites' coverage checks.
struct Checked {
  bool skipped = false;
  size_t rows = 0;
};

/// Runs `text` through both evaluators over `docs` and expects identical
/// rows, row order, row URIs and work counters; per pattern and
/// document, also identical MatchPattern lists and a Matches that agrees
/// with them.  Queries whose nested loop would be too large for the
/// reference are skipped.
Checked ExpectSameAsReference(const std::string& text,
                              const std::vector<const xml::Document*>& docs) {
  SCOPED_TRACE(text);
  Checked checked;
  auto parsed = ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return checked;
  const Query& query = parsed.value();

  // Pattern sizes bound the reference's enumeration and nested loop.
  double embeddings = 0;
  double loop = 1;
  double work = 0;
  for (const TreePattern& pattern : query.patterns()) {
    const double n = CountEmbeddings(pattern, docs);
    embeddings += n;
    loop *= std::max(n, 1.0);
    work += loop;
  }
  if (embeddings > 20000 || work > 2e6) {
    checked.skipped = true;
    return checked;
  }

  (void)Evaluator::ConsumeWorkStats();
  const QueryResult got = Evaluator::Evaluate(query, docs);
  const Evaluator::WorkStats got_stats = Evaluator::ConsumeWorkStats();
  reference::WorkStats want_stats;
  const QueryResult want = reference::Evaluate(query, docs, &want_stats);
  checked.rows = want.rows.size();
  EXPECT_EQ(got.rows.size(), want.rows.size());
  EXPECT_TRUE(got.rows == want.rows) << "rows differ";
  EXPECT_TRUE(got.row_uris == want.row_uris) << "row URIs differ";
  EXPECT_EQ(got_stats.doc_bytes_scanned, want_stats.doc_bytes_scanned);
  EXPECT_EQ(got_stats.result_bytes, want_stats.result_bytes);
  EXPECT_EQ(got_stats.embeddings_found, want_stats.embeddings_found);
  EXPECT_EQ(static_cast<double>(got_stats.embeddings_found), embeddings);

  for (const TreePattern& pattern : query.patterns()) {
    for (const xml::Document* doc : docs) {
      reference::WorkStats stats;
      const auto want_matches = reference::MatchPattern(pattern, *doc, &stats);
      const auto got_matches = Evaluator::MatchPattern(pattern, *doc);
      EXPECT_TRUE(SameMatches(got_matches, want_matches))
          << pattern.ToString() << " on " << doc->uri();
      EXPECT_EQ(Evaluator::Matches(pattern, *doc), !got_matches.empty())
          << pattern.ToString() << " on " << doc->uri();
      EXPECT_EQ(reference::Matches(pattern, *doc, &stats),
                !want_matches.empty());
    }
  }
  (void)Evaluator::ConsumeWorkStats();
  return checked;
}

/// Checks `count` generated queries and expects most to be compared and
/// a fair share of those to return rows.
template <typename Generate>
void CheckGenerated(int count, const Corpus& corpus, Generate generate) {
  int compared = 0;
  int with_rows = 0;
  for (int i = 0; i < count; ++i) {
    const Checked checked = ExpectSameAsReference(generate(), corpus.ptrs);
    if (::testing::Test::HasFailure()) return;
    if (checked.skipped) continue;
    ++compared;
    if (checked.rows > 0) ++with_rows;
  }
  EXPECT_GE(compared, count * 9 / 10);
  EXPECT_GE(with_rows, compared / 4);
}

TEST(EvaluatorDifferentialTest, BenchmarkQueriesOverFragments) {
  const Corpus corpus = XmarkCorpus(/*split_sections=*/true, 60, 20);
  size_t rows = 0;
  for (const std::string& text : BenchmarkQueries()) {
    const Checked checked = ExpectSameAsReference(text, corpus.ptrs);
    EXPECT_FALSE(checked.skipped);
    rows += checked.rows;
  }
  EXPECT_GT(rows, 0u);
}

TEST(EvaluatorDifferentialTest, BenchmarkQueriesOverFullSites) {
  const Corpus corpus = XmarkCorpus(/*split_sections=*/false, 4, 40);
  for (const std::string& text : BenchmarkQueries()) {
    EXPECT_FALSE(ExpectSameAsReference(text, corpus.ptrs).skipped);
  }
}

/// Evaluates `text` over `docs` serially and on shared pools of 2, 3 and
/// 8 threads, and expects the pooled calls to give the serial rows, row
/// URIs, XML columns and work counters; the serial call is checked
/// against the reference matcher.
void ExpectPooledSameAsSerial(const std::string& text,
                              const std::vector<const xml::Document*>& docs) {
  SCOPED_TRACE(text);
  SCOPED_TRACE(StrFormat("%zu documents", docs.size()));
  EXPECT_FALSE(ExpectSameAsReference(text, docs).skipped);
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  (void)Evaluator::ConsumeWorkStats();
  const QueryResult want = Evaluator::Evaluate(parsed.value(), docs);
  const Evaluator::WorkStats want_stats = Evaluator::ConsumeWorkStats();
  for (const int threads : {2, 3, 8}) {
    SCOPED_TRACE(StrFormat("%d threads", threads));
    const QueryResult got = Evaluator::Evaluate(
        parsed.value(), docs, &common::ThreadPool::Shared(threads));
    EXPECT_TRUE(Evaluator::HasPendingWorkStats());
    const Evaluator::WorkStats got_stats = Evaluator::ConsumeWorkStats();
    EXPECT_TRUE(got.rows == want.rows) << "rows differ";
    EXPECT_TRUE(got.row_uris == want.row_uris) << "row URIs differ";
    EXPECT_EQ(got.xml_columns, want.xml_columns);
    EXPECT_EQ(got_stats.doc_bytes_scanned, want_stats.doc_bytes_scanned);
    EXPECT_EQ(got_stats.result_bytes, want_stats.result_bytes);
    EXPECT_EQ(got_stats.embeddings_found, want_stats.embeddings_found);
  }
}

/// The first `n` documents of `corpus`.
std::vector<const xml::Document*> Prefix(const Corpus& corpus, size_t n) {
  return {corpus.ptrs.begin(),
          corpus.ptrs.begin() + static_cast<std::ptrdiff_t>(n)};
}

// q1-q10, value joins included, over document counts around the
// evaluator's fan-out threshold of 8 and a prime, so chunks split
// unevenly, and over the whole corpus.
TEST(EvaluatorDifferentialTest, PooledEvaluationMatchesSerialOverFragments) {
  const Corpus corpus = XmarkCorpus(/*split_sections=*/true, 60, 20);
  for (const size_t n : {0u, 1u, 7u, 8u, 9u, 37u, 60u}) {
    for (const std::string& text : BenchmarkQueries()) {
      ExpectPooledSameAsSerial(text, Prefix(corpus, n));
    }
  }
}

TEST(EvaluatorDifferentialTest, PooledEvaluationMatchesSerialOverFullSites) {
  const Corpus corpus = XmarkCorpus(/*split_sections=*/false, 13, 12);
  for (const size_t n : {0u, 1u, 7u, 8u, 9u, 13u}) {
    for (const std::string& text : BenchmarkQueries()) {
      ExpectPooledSameAsSerial(text, Prefix(corpus, n));
    }
  }
}

// Evaluate called from tasks of the pool it fans out on, with every
// worker busy in one, completes: each caller matches the chunks no
// worker is free to take.
TEST(EvaluatorDifferentialTest, PooledEvaluationInsideAPoolTaskCompletes) {
  const Corpus corpus = XmarkCorpus(/*split_sections=*/true, 24, 10);
  auto parsed = ParseQuery(BenchmarkQueries()[6]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Query& query = parsed.value();
  const QueryResult want = Evaluator::Evaluate(query, corpus.ptrs);
  (void)Evaluator::ConsumeWorkStats();
  ASSERT_FALSE(want.rows.empty());
  for (const int threads : {1, 2}) {
    common::ThreadPool& pool = common::ThreadPool::Shared(threads);
    std::vector<std::future<QueryResult>> callers;
    for (int t = 0; t < threads; ++t) {
      callers.push_back(pool.Submit([&] {
        QueryResult result = Evaluator::Evaluate(query, corpus.ptrs, &pool);
        (void)Evaluator::ConsumeWorkStats();
        return result;
      }));
    }
    for (auto& caller : callers) {
      EXPECT_TRUE(caller.get().rows == want.rows) << threads << " threads";
    }
  }
}

TEST(EvaluatorDifferentialTest, RandomPatternsOverFragments) {
  const Corpus corpus = XmarkCorpus(/*split_sections=*/true, 24, 10);
  QueryGenerator generator(corpus, 11);
  CheckGenerated(400, corpus, [&] { return generator.SinglePattern(); });
}

TEST(EvaluatorDifferentialTest, RandomPatternsOverFullSites) {
  const Corpus corpus = XmarkCorpus(/*split_sections=*/false, 3, 24);
  QueryGenerator generator(corpus, 12);
  CheckGenerated(200, corpus, [&] { return generator.SinglePattern(); });
}

TEST(EvaluatorDifferentialTest, RandomPatternsOverRecursiveLists) {
  const Corpus corpus = RecursiveCorpus(13, 6);
  QueryGenerator generator(corpus, 14);
  CheckGenerated(400, corpus, [&] { return generator.SinglePattern(); });
}

TEST(EvaluatorDifferentialTest, RandomTwoAndThreePatternJoins) {
  const Corpus corpus = XmarkCorpus(/*split_sections=*/true, 24, 10);
  QueryGenerator generator(corpus, 15);
  int i = 0;
  CheckGenerated(200, corpus,
                 [&] { return generator.Joined(i++ % 3 == 2 ? 3 : 2); });
}

TEST(EvaluatorDifferentialTest, RandomJoinsOverRecursiveLists) {
  const Corpus corpus = RecursiveCorpus(16, 3);
  QueryGenerator generator(corpus, 17);
  int i = 0;
  CheckGenerated(150, corpus,
                 [&] { return generator.Joined(i++ % 2 == 0 ? 3 : 2); });
}

TEST(EvaluatorDifferentialTest, HandWrittenEdgeCases) {
  Corpus corpus;
  corpus.Add("a.xml",
             "<r id=\"1\"><a><k>1</k><k>2</k><v>x</v></a><a><k>2</k>"
             "<v>2</v><a><k>1</k><v>1</v></a></a></r>");
  corpus.Add("b.xml",
             "<r id=\"2\"><b><k>1</k></b><b><k>2</k><k>1</k></b>"
             "<a><k>3</k></a></r>");
  for (const char* text : {
           "/r//a:val",                        // root child axis
           "/a:val",                           // root is not an a
           "//@id:val",                        // attribute pattern root
           "/@id",                             // attribute never the root
           "//r[/@id:cont, //k:val]",          // attribute cont
           "//a[//k:val, /v:cont]",            // nested a's
           "//a[/k#x, /v#y] where #x=#y",      // join inside one pattern
           "//b/k#y; //a/k#x:val where #x=#y", // later pattern named first
           "//a/k:val; //b/k:val",             // no join: cross product
           // The third pattern joins only the first.
           "//a[/k#x, /v#u]; //b/k#y; //r/@id#z:val where #x=#y, #z=#u",
           // A triangle: the third pattern's second join only filters.
           "//a[/k#x, /v#u]; //b[/k#y, /k#w]; //a[/k#z, /v#v] "
           "where #x=#y, #w=#z, #u=#v",
           "//a[/missing]",                    // absent label
           "//a:val[//k='1', //k in[2,3]]",    // predicates on siblings
       }) {
    ExpectSameAsReference(text, corpus.ptrs);
  }
}

}  // namespace
}  // namespace webdex::query
