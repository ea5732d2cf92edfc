#ifndef WEBDEX_INDEX_SUMMARY_H_
#define WEBDEX_INDEX_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/entry.h"
#include "index/intern.h"
#include "index/key_twig.h"
#include "index/path_match.h"
#include "index/strategy.h"

namespace webdex::index {

/// One tree pattern's document counts against a PathSummary, taken once
/// from the pattern's key twig (so an index built without w‖ keys is
/// priced without its predicate words).  Every document estimate of the
/// pattern's look-ups, and the Section 8.5 advice, is arithmetic over
/// these counts.
struct PatternProfile {
  /// |D|: the corpus size the counts are out of.
  uint64_t documents = 0;
  /// Documents containing each distinct twig key (KeyTwig::keys order).
  std::vector<uint64_t> key_docs;
  /// Documents matching each query path (KeyTwig::query_paths order):
  /// the upper-bound selectivity of each linear branch.
  std::vector<uint64_t> path_docs;

  /// Documents an LU look-up would retrieve (upper bound: the rarest
  /// key's document count).
  uint64_t LuDocs() const;

  /// Documents an LUP look-up would retrieve (upper bound: the rarest
  /// query path's document count).
  uint64_t LupDocs() const;

  /// LupDocs() / |D| (0 on an empty corpus).
  double LupFraction() const;

  /// Expected documents under branch independence: |D| x prod_i (docs
  /// matching branch i / |D|).  When this is far below the LUP estimate,
  /// the branches co-occur rarely and only a structural join can prune.
  double IndependentDocs() const;

  /// Damped-independence estimate of the documents surviving the
  /// holistic twig join (the LUI/2LUPI candidate set).  The naive
  /// independence product multiplies per-branch fractions that are in
  /// practice strongly correlated (the documents carrying a pattern's
  /// rarest branch usually carry the others too), which under-estimates
  /// by orders of magnitude and makes an ID-side look-up appear free.
  /// Exponential backoff — full weight on the most selective branch,
  /// square root on the next, fourth root on the third, ... — is the
  /// standard damping for conjuncts of unknown correlation; the query
  /// planner uses this estimate, while AdvisedLookup keeps the raw
  /// product as the paper's Section 8.5 detector.
  double TwigJoinDocs() const;

  /// The paper's Section 8.5 criterion, made executable: kLUI when the
  /// pattern is multi-branched, its individual linear paths are common,
  /// and their expected co-occurrence is far rarer — i.e. "most of the
  /// documents only match linear paths of the query".  kLUP otherwise
  /// (the paper's measured default winner; 2LUPI behaves like LUI with
  /// extra pre-filtering).
  StrategyKind AdvisedLookup() const;
};

/// DataGuide-style corpus summary: every distinct root-to-node label
/// path and every index key, with the number of documents containing
/// each.  This is the "data summaries and some statistical information"
/// of paper Section 8.5, with which the cases where LUI / 2LUPI look-ups
/// beat LUP "can be statically detected".
///
/// Counters are flat vectors indexed by interned handle (the native
/// index core, docs/PERFORMANCE.md): accounting a document is a handful
/// of vector bumps per entry instead of string-keyed map inserts, and
/// the summary stays tiny — distinct handles, not per-document entries.
/// Copyable (Warehouse::AdoptExistingData clones it); the InternCore it
/// indexes into is process-wide and immortal.
class PathSummary {
 public:
  PathSummary() : core_(&InternCore::Global()) {}
  /// Tests may pin a private core; it must outlive the summary.
  explicit PathSummary(const InternCore* core) : core_(core) {}

  /// Accounts one document's extracted index (each distinct path/key of
  /// the document counts once).  `index` must have been extracted into
  /// this summary's core.
  void AddDocument(const DocIndex& index);

  uint64_t documents() const { return documents_; }
  uint64_t distinct_paths() const { return distinct_paths_; }

  /// Documents containing at least one occurrence of `key` (0 if never
  /// seen).
  uint64_t DocsWithKey(const std::string& key) const;

  /// Documents containing a data path matching the query path — an
  /// upper-bound estimate of one linear branch's selectivity.
  uint64_t DocsMatchingPath(const QueryPath& path) const;

  /// The document counts of `twig`'s keys and query paths.
  PatternProfile Profile(const KeyTwig& twig) const;

 private:
  /// DocsMatchingPath over a caller-owned component buffer, reused
  /// across a profile's query paths.
  uint64_t DocsMatchingPath(const QueryPath& path,
                            std::vector<KeyHandle>* components) const;

  uint64_t CountAt(const std::vector<uint64_t>& counts, uint32_t handle) const {
    return handle < counts.size() ? counts[handle] : 0;
  }
  void Bump(std::vector<uint64_t>* counts, uint32_t handle) {
    if (handle >= counts->size()) counts->resize(handle + 1, 0);
    (*counts)[handle] += 1;
  }

  const InternCore* core_;
  uint64_t documents_ = 0;
  uint64_t distinct_paths_ = 0;
  /// Indexed by KeyHandle / PathHandle.
  std::vector<uint64_t> docs_per_key_;
  std::vector<uint64_t> docs_per_path_;
  /// lookup key (last path component) -> distinct data paths ending in
  /// it, for DocsMatchingPath without a full scan.
  std::vector<std::vector<PathHandle>> paths_by_last_key_;
};

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_SUMMARY_H_
