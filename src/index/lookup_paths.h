#ifndef WEBDEX_INDEX_LOOKUP_PATHS_H_
#define WEBDEX_INDEX_LOOKUP_PATHS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cloud/kv_store.h"
#include "common/result.h"
#include "index/entry.h"
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
/// machine that ran the look-up.

/// Merged view of everything the index holds for a set of keys:
/// key -> URI -> concatenated attribute values.
using FetchedEntries = std::map<
    std::string,
    std::map<std::string, std::vector<std::string>, std::less<>>>;

/// BatchGets `keys` from `table` and merges the returned items per
/// (key, URI) — the shared fetch front end of every look-up, and the one
/// place generation visibility is enforced (index/generation.h): the
/// reserved kGenAttr stamp is never merged as an owner URI, and with a
/// non-null `view` only postings of each document's pinned generation
/// survive the merge.  nullptr = the static view (everything visible at
/// generation 0), byte-identical to the pre-mutability fetch.
Result<FetchedEntries> FetchEntries(cloud::SimAgent& agent,
                                    cloud::KvStore& store,
                                    const std::string& table,
                                    const std::vector<std::string>& keys,
                                    LookupStats* stats,
                                    const GenerationMap* view = nullptr);

/// Intersects URI sets across all `keys` of `entries` (the LU merge).
std::set<std::string> IntersectUris(const FetchedEntries& entries,
                                    const std::vector<std::string>& keys,
                                    LookupStats* stats);

/// The LU look-up core: fetch every twig key and intersect the URI sets
/// (Section 5.1).
Result<std::set<std::string>> LookupByKeys(
    cloud::SimAgent& agent, cloud::KvStore& store, const std::string& table,
    const KeyTwig& twig, LookupStats* stats,
    const GenerationMap* view = nullptr);

/// The LUP look-up core (also 2LUPI's first phase): intersects, over all
/// query paths, the URIs having a matching stored data path
/// (Section 5.2).
Result<std::set<std::string>> LookupByPaths(
    cloud::SimAgent& agent, cloud::KvStore& store, const std::string& table,
    const KeyTwig& twig, const ExtractOptions& options, LookupStats* stats,
    const GenerationMap* view = nullptr);

/// The LUI look-up core (also 2LUPI's second phase): decodes per-URI ID
/// lists and runs the holistic twig join (Section 5.3).  When
/// `restrict_to` is non-null, URIs outside it are skipped — the 2LUPI
/// semijoin reduction of Figure 5.
Result<std::set<std::string>> LookupByIds(
    cloud::SimAgent& agent, cloud::KvStore& store, const std::string& table,
    const KeyTwig& twig, const std::set<std::string>* restrict_to,
    LookupStats* stats, const GenerationMap* view = nullptr);

/// The 2LUPI look-up core (Figure 5): LookupByPaths over `paths_table`
/// yields R1, then — unless R1 is empty — LookupByIds over `ids_table`,
/// semijoin-reduced by R1.
Result<std::set<std::string>> LookupSemijoin(
    cloud::SimAgent& agent, cloud::KvStore& store,
    const std::string& paths_table, const std::string& ids_table,
    const KeyTwig& twig, const ExtractOptions& options, LookupStats* stats,
    const GenerationMap* view = nullptr);

/// Runs strategy `kind`'s look-up core over `tables`, its Table 2
/// tables: one, or for 2LUPI the paths table then the ids table (the
/// semijoin).  The one dispatch the planner's access paths and the
/// strategies' reference LookupPattern share.
Result<std::set<std::string>> LookupByKind(
    StrategyKind kind, cloud::SimAgent& agent, cloud::KvStore& store,
    const std::vector<std::string>& tables, const KeyTwig& twig,
    const ExtractOptions& options, LookupStats* stats,
    const GenerationMap* view = nullptr);

/// The distinct index keys a LookupByPaths call fetches (the LookupKey of
/// every query path, deduplicated in first-appearance order).  Exposed so
/// cost estimation can size the BatchGet without running it.
std::vector<std::string> PathLookupKeys(const KeyTwig& twig);

std::vector<std::string> SortedUris(const std::set<std::string>& uris);

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_LOOKUP_PATHS_H_
