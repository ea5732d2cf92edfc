#ifndef WEBDEX_INDEX_STRATEGY_H_
#define WEBDEX_INDEX_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/kv_store.h"
#include "common/result.h"
#include "common/rng.h"
#include "index/entry.h"
#include "index/generation.h"
#include "query/tree_pattern.h"
#include "xml/dom.h"

namespace webdex::index {

/// The four indexing strategies of paper Section 5 (Table 2).
enum class StrategyKind {
  kLU,     // Label-URI
  kLUP,    // Label-URI-Path
  kLUI,    // Label-URI-ID
  k2LUPI,  // both LUP and LUI materialized
};

const char* StrategyKindName(StrategyKind kind);
const std::vector<StrategyKind>& AllStrategyKinds();

/// Work/volume counters produced while extracting one document's index.
struct ExtractStats {
  uint64_t entries = 0;        // distinct keys in the document
  uint64_t items = 0;          // key-value items produced
  uint64_t payload_bytes = 0;  // attribute name + value bytes
};

/// Work/volume counters produced by one pattern look-up.
struct LookupStats {
  uint64_t keys_looked_up = 0;
  uint64_t items_fetched = 0;
  uint64_t bytes_fetched = 0;
  uint64_t uri_merge_ops = 0;   // URI-set intersection elements touched
  uint64_t paths_tested = 0;    // stored data paths matched (LUP / 2LUPI)
  uint64_t twig_id_ops = 0;     // twig-join ID operations (LUI / 2LUPI)

  LookupStats& operator+=(const LookupStats& o);
};

/// Items destined for one key-value table.
struct TableItems {
  std::string table;
  std::vector<cloud::Item> items;
};

/// What an index item carries next to the document URI: Table 2's
/// payload column.
enum class Payload {
  kNone,   // epsilon (LU)
  kPaths,  // the node's label paths inPath_1(n) ... inPath_y(n) (LUP)
  kIds,    // the node's structural IDs id_1(n) ... id_z(n) (LUI)
};

/// One table a strategy writes: every entry of a document becomes
/// (key(n), (URI(d), payload)) items in `table`.
struct TableLayout {
  const char* table;
  Payload payload;
};

/// Table 2 as data: the tables `kind` writes, in order.  2LUPI is LUP
/// plus LUI written to two tables, paths then ids (Sections 5 and 6).
const std::vector<TableLayout>& StrategyLayout(StrategyKind kind);

/// The table names of StrategyLayout(kind), in order.
std::vector<std::string> StrategyTableNames(StrategyKind kind);

/// An indexing strategy: how documents are turned into key-value items
/// (Table 2's indexing function I), plus the reference answer to a tree
/// pattern from the stored items (the per-strategy look-up of Section 5).
///
/// One class serves all four strategies: its kind selects a row of
/// StrategyLayout, and one extraction body writes that row's tables.
/// Strategies are stateless; the same instance may serve any number of
/// stores and documents.  They adapt to the target store's capabilities
/// (binary support, value/item size limits) at item-building time, which
/// is what differentiates the DynamoDB and SimpleDB deployments compared
/// in Section 8.4.
class IndexingStrategy {
 public:
  explicit IndexingStrategy(StrategyKind kind) : kind_(kind) {}

  static std::unique_ptr<IndexingStrategy> Create(StrategyKind kind);

  StrategyKind kind() const { return kind_; }
  const char* name() const { return StrategyKindName(kind_); }

  /// Key-value tables this strategy stores its index in (2LUPI uses two,
  /// paths then ids; everything else one — Section 6).  Call
  /// store.CreateTable for each.
  std::vector<std::string> TableNames() const {
    return StrategyTableNames(kind_);
  }

  /// Translates one parsed document into store items.  `uuid_rng` feeds
  /// the client-generated UUID range keys (Section 6).  Items are sized
  /// to the store's limits: oversized ID lists are chunked across items,
  /// and binary payloads are hex-armoured for text-only stores.
  ///
  /// Computes the document's DocIndex internally; callers that need the
  /// DocIndex for their own bookkeeping (e.g. the extraction pipeline
  /// feeding the planner's PathSummary) should compute it once and use
  /// the overload below, which skips the recomputation.
  Result<std::vector<TableItems>> ExtractItems(const xml::Document& doc,
                                               const ExtractOptions& options,
                                               const cloud::KvStore& store,
                                               Rng& uuid_rng,
                                               ExtractStats* stats) const {
    return ExtractItems(doc, ExtractDocIndex(doc, options), options, store,
                        uuid_rng, stats);
  }

  /// Same, from a precomputed `doc_index` (must be
  /// ExtractDocIndex(doc, options) for the same document and options).
  Result<std::vector<TableItems>> ExtractItems(
      const xml::Document& doc, const DocIndex& doc_index,
      const ExtractOptions& options, const cloud::KvStore& store,
      Rng& uuid_rng, ExtractStats* stats) const;

  /// The reference look-up for one tree pattern (Section 5): returns
  /// the sorted URIs of documents that may contain matches, by running
  /// the strategy's look-up core (index/lookup_paths.h) over its Table 2
  /// tables.  The query engine does not call it — queries run through
  /// the planner's access paths (engine/access_path.h), which share the
  /// same cores — but tests and benchmarks compare against it.
  /// Index-store round trips advance `agent`'s simulated clock; CPU work
  /// performed on the fetched data is reported through `stats` so the
  /// caller can charge it to the right simulated machine.
  /// `options` must match the options the index was built with: when
  /// the index holds no word keys, word-based pruning is skipped.
  ///
  /// `view` pins the generation each document is read at
  /// (index/generation.h): postings of superseded generations and
  /// tombstoned documents are invisible.  nullptr means the static
  /// default view (everything visible at generation 0) — byte-identical
  /// to the pre-mutability look-up.
  Result<std::vector<std::string>> LookupPattern(
      cloud::SimAgent& agent, cloud::KvStore& store,
      const query::TreePattern& pattern, const ExtractOptions& options,
      LookupStats* stats, const GenerationMap* view = nullptr) const;

 private:
  StrategyKind kind_;
};

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_STRATEGY_H_
