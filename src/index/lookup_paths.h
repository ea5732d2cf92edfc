#ifndef WEBDEX_INDEX_LOOKUP_PATHS_H_
#define WEBDEX_INDEX_LOOKUP_PATHS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/kv_store.h"
#include "common/result.h"
#include "index/entry.h"
#include "index/generation.h"
#include "index/key_twig.h"
#include "index/strategy.h"

namespace webdex::index {

/// The four index look-up cores of Section 5, behind one dispatch
/// (LookupByKind) shared by the query planner's physical access paths
/// (engine/access_path.h) and the strategies' reference LookupPattern,
/// which passes the tables of Table 2.
///
/// All four advance `agent`'s virtual clock through the store calls and
/// report CPU work via `stats`; the caller charges it to the simulated
/// machine that ran the look-up.  A look-up borrows what it fetches: the
/// postings are views into the store's tables (KvStore::BatchGetViews),
/// and documents are named by dense DocIds until the answer is mapped
/// back to URI strings.

/// A document's id within one look-up: its URI's index in the look-up's
/// DocTable.  Host-only — assigned per look-up in first-fetch order,
/// never stored, never compared across look-ups.
using DocId = uint32_t;

/// The URIs one look-up has fetched, each mapped to a dense DocId (radb's
/// string_index idiom: string -> dense index), so URI sets are sorted
/// DocId vectors and intersections compare integers.  Both phases of the
/// 2LUPI semijoin share one table, so their DocIds agree.  The table
/// borrows its URIs: each must stay valid while the table is used.
class DocTable {
 public:
  /// `uri`'s id, assigned on first sight.
  DocId Intern(std::string_view uri);
  /// The URIs of `ids`, as strings sorted by URI.
  std::vector<std::string> SortedUris(std::span<const DocId> ids) const;

 private:
  /// Doubles the slot array (64 slots at first) and re-inserts every id.
  void Grow();

  std::vector<std::string_view> uris_;  // by DocId
  /// Open addressing with linear probing: id + 1, or 0 for a free slot.
  /// A power of two in size, at most half full.
  std::vector<DocId> slots_;
};

/// Everything the index holds for a set of keys, as one flat posting
/// list.  A posting is one fetched item's owner URI and its attribute
/// values, borrowed from the store: valid until the next write to the
/// fetched table (KvStore::BatchGetViews).  The postings are
/// stable-sorted by (key ordinal, DocId), so each key's postings form a
/// run, and within it each document's postings form a run in fetch
/// order — items in range-key order, then values in attribute order,
/// the order the LUP look-up tests a (key, URI)'s stored paths in.
struct FetchedEntries {
  struct Posting {
    uint32_t key;  // index into the fetched keys
    DocId doc;
    cloud::Item::Values values;
  };
  std::vector<Posting> postings;
  /// Key k's postings are [key_begin[k], key_begin[k + 1]).
  std::vector<uint32_t> key_begin;
};

/// BatchGets `keys` from `table` into `*out`, interning each posting's
/// URI in `*docs` — the shared fetch front end of every look-up, and the
/// one place generation visibility is enforced (index/generation.h): the
/// reserved kGenAttr stamp is never taken as an owner URI, and with a
/// non-null `view` only postings of each document's pinned generation
/// are kept.  nullptr = the static view (everything visible at
/// generation 0).  Every fetched item counts in `items_fetched` and
/// `bytes_fetched`, visible or not: superseded postings cost reads until
/// compacted.
Status FetchEntries(cloud::SimAgent& agent, cloud::KvStore& store,
                    const std::string& table,
                    const std::vector<std::string>& keys, DocTable* docs,
                    LookupStats* stats, const GenerationMap* view,
                    FetchedEntries* out);

/// Runs strategy `kind`'s look-up core over `tables`, its Table 2
/// tables: one, or for 2LUPI the paths table then the ids table (the
/// semijoin).  The one dispatch the planner's access paths and the
/// strategies' reference LookupPattern share.  Returns the matching
/// URIs, sorted.
///
/// The cores (Section 5): LU fetches every twig key and intersects the
/// URI sets; LUP intersects, over all query paths, the URIs having a
/// matching stored data path; LUI intersects the keys' URI sets, decodes
/// the candidates' ID lists and runs the holistic twig join; 2LUPI runs
/// LUP over the paths table, then — unless that is empty — LUI over the
/// ids table, semijoin-reduced by LUP's answer (Figure 5).
Result<std::vector<std::string>> LookupByKind(
    StrategyKind kind, cloud::SimAgent& agent, cloud::KvStore& store,
    const std::vector<std::string>& tables, const KeyTwig& twig,
    const ExtractOptions& options, LookupStats* stats,
    const GenerationMap* view = nullptr);

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_LOOKUP_PATHS_H_
