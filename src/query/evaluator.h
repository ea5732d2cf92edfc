#ifndef WEBDEX_QUERY_EVALUATOR_H_
#define WEBDEX_QUERY_EVALUATOR_H_

#include <string>
#include <vector>

#include "query/tree_pattern.h"
#include "xml/dom.h"

namespace webdex::common {
class ThreadPool;
}  // namespace webdex::common

namespace webdex::query {

/// One embedding of a tree pattern into a document.
struct PatternMatch {
  /// URI of the matched document.
  std::string uri;
  /// Projected outputs, one per annotated node in pattern pre-order
  /// (string value for `val`, serialized subtree for `cont`).
  std::vector<std::string> outputs;
  /// String values of the pattern's join-tagged nodes, keyed by the
  /// node's pre-order index (parallel to `join_nodes` of the evaluator).
  std::vector<std::string> join_values;
};

/// A query answer: a relation whose columns are the annotated nodes of
/// all patterns, in pattern order then node pre-order.
struct QueryResult {
  std::vector<std::vector<std::string>> rows;
  /// Per row, the URI each pattern's binding came from (one entry per
  /// pattern).  For value joins the entries usually name *different*
  /// documents (Section 5.5); Table 5's "documents with results" counts
  /// the distinct URIs appearing here.
  std::vector<std::vector<std::string>> row_uris;
  /// Per column, true when it holds serialized XML: `cont` on an
  /// element.  ToXml writes those columns raw and escapes every other
  /// one (a missing entry counts as false).
  std::vector<bool> xml_columns;

  /// Distinct documents contributing to at least one row.
  size_t ContributingDocuments() const;

  /// Serialized size, the |r(q)| metric of the cost model (Section 7.1).
  uint64_t SizeBytes() const;

  /// XML rendering (what the query processor writes back to the file
  /// store): <results><row><col>...</col>...</row>...</results>.
  std::string ToXml() const;
};

/// The "standard XML query evaluator" of the architecture (Section 3,
/// step 11): evaluates tree patterns over single documents and combines
/// pattern results with value joins.  It plays the role the ViP2P
/// processor plays in the paper's implementation — the piece you "can
/// choose freely".
class Evaluator {
 public:
  /// All embeddings of `pattern` into `doc` (every homomorphism that
  /// respects labels, node kinds, edges and value predicates), in
  /// lexicographic order of the bound nodes' document order, the
  /// bindings taken in pattern pre-order.
  static std::vector<PatternMatch> MatchPattern(const TreePattern& pattern,
                                                const xml::Document& doc);

  /// True if at least one embedding exists.
  static bool Matches(const TreePattern& pattern, const xml::Document& doc);

  /// Evaluates a full query over a set of documents: per-pattern matches
  /// are computed per document, then combined across documents by the
  /// value joins (Section 5.5: "evaluate first each tree pattern
  /// individually; then apply the value joins on the tree pattern
  /// results").  Rows come in nested-loop order: pattern by pattern,
  /// each pattern's matches in `docs` order, then MatchPattern order.
  ///
  /// With a `pool`, the per-document matching of at least 8 documents
  /// splits `docs` into contiguous chunks, one per pool thread and at
  /// least 4 documents each, which the calling thread and the pool's
  /// workers claim (ThreadPool::ParallelFor).  The chunks' relations
  /// concatenate in `docs` order and the value joins run on the calling
  /// thread, so rows, row URIs and work counters are identical with and
  /// without a pool.  `docs` must not change while the call runs.
  static QueryResult Evaluate(const Query& query,
                              const std::vector<const xml::Document*>& docs,
                              common::ThreadPool* pool = nullptr);

  /// Work-accounting hooks: number of document bytes scanned and result
  /// bytes produced since the last consume on this thread.  Consumed by
  /// the engine to charge simulated CPU time.
  ///
  /// Threading contract: the counters live in thread_local storage of
  /// the thread that called Evaluate / MatchPattern / Matches.
  /// ConsumeWorkStats() MUST be called on that same thread — calling it
  /// from another thread silently returns that thread's (empty) stats
  /// and the work goes uncharged.  Evaluate's pooled chunks never touch
  /// these counters: each chunk returns its counts by value, and the
  /// calling thread adds them to its own before Evaluate returns.
  /// HasPendingWorkStats() lets callers assert the pairing; the engine
  /// does so after every evaluation.
  struct WorkStats {
    uint64_t doc_bytes_scanned = 0;
    uint64_t result_bytes = 0;
    uint64_t embeddings_found = 0;
  };
  static WorkStats ConsumeWorkStats();

  /// True if this thread has recorded evaluation work that has not been
  /// consumed yet.  Debug/assertion hook for the contract above: after
  /// an Evaluate call, the *producing* thread sees true until it
  /// consumes; every other thread sees its own flag (typically false).
  static bool HasPendingWorkStats();

 private:
  static WorkStats& ThreadStats();
  static bool& ThreadStatsPending();
};

}  // namespace webdex::query

#endif  // WEBDEX_QUERY_EVALUATOR_H_
