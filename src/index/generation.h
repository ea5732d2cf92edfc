#ifndef WEBDEX_INDEX_GENERATION_H_
#define WEBDEX_INDEX_GENERATION_H_

#include <cstdint>
#include <map>
#include <string>

#include "cloud/kv_store.h"
#include "common/result.h"

namespace webdex::index {

/// Versioned index generations for the mutable corpus
/// (docs/MUTABILITY.md).  Every posting written by an upsert carries a
/// monotone generation stamp as an extra reserved attribute; deletes
/// write tombstones into a meta table instead of erasing in place.  A
/// reader holding a GenerationMap sees exactly one generation per
/// document, so queries stay bit-identical while superseded postings
/// linger until compaction garbage-collects them.
///
/// Generation 0 is the static corpus: postings carry *no* stamp
/// attribute and the meta table holds *no* item, so a build with zero
/// mutations is byte-identical to the pre-mutability index (pinned by
/// tests/dump_golden_test.cc against the committed goldens).

/// Reserved attribute name carrying a posting's generation stamp
/// (decimal).  '~' sorts after every URI character the corpus uses and
/// cannot begin a document URI, so the owner-URI attribute of a posting
/// is always the one attribute that is not reserved.
inline constexpr char kGenAttr[] = "~g";
/// Reserved meta-item attribute marking a tombstone.
inline constexpr char kTombstoneAttr[] = "~x";
/// Table holding one append-only meta item per (document, generation)
/// mutation.  Created empty by Warehouse::Setup, so static deployments
/// dump identically with or without it.
inline constexpr char kMetaTable[] = "idx-meta";

/// What a reader needs to know about one mutated document: the single
/// visible generation, and whether the document is deleted.
struct GenerationInfo {
  uint64_t generation = 0;
  bool tombstoned = false;
};

/// Host-side view of the mutated slice of the corpus: URI -> current
/// generation.  Documents never mutated are absent and visible at
/// generation 0.  Copy-on-write: the warehouse publishes immutable
/// snapshots of this map, and every query pins the snapshot current at
/// submission, so maintenance running later cannot change its answer.
class GenerationMap {
 public:
  /// Merges one observed (generation, tombstoned) pair, keeping the
  /// highest generation.  Max-wins makes replays and out-of-order task
  /// commits converge to the same map regardless of delivery order.
  void Apply(const std::string& uri, uint64_t generation, bool tombstoned);

  /// True when a posting stamped `stamp` for `uri` belongs to the
  /// generation this view exposes.  Unmutated documents (absent here)
  /// are visible exactly at stamp 0.
  bool Visible(const std::string& uri, uint64_t stamp) const;

  /// The entry for `uri`, or nullptr when the document was never mutated
  /// (equivalently: was canonicalized back to generation 0).
  const GenerationInfo* Find(const std::string& uri) const;

  /// Forgets `uri` — compaction rewrote it at generation 0 (or fully
  /// collected its tombstone), so the default visibility rule applies
  /// again.
  void Erase(const std::string& uri);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  uint64_t TombstoneCount() const;
  const std::map<std::string, GenerationInfo>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, GenerationInfo> entries_;
};

/// Zero-padded decimal range key for a meta item, so range keys of one
/// URI sort in generation order and "current generation" is the maximum.
std::string GenerationRangeKey(uint64_t generation);

/// The append-only meta item recording that `uri` reached `generation`
/// (hash = URI, range = zero-padded generation).  Append-only on
/// purpose: a redelivered lower-generation task re-puts *its own* item
/// and can never clobber a later one.
cloud::Item MakeMetaItem(const std::string& uri, uint64_t generation,
                         bool tombstoned);

/// Parses the decimal generation stamp of a posting's kGenAttr value.
Result<uint64_t> ParseGenerationStamp(const std::string& value);

/// Reads a posting's stamp out of its attribute set (0 when unstamped).
uint64_t StampOf(const cloud::Attributes& attrs);

/// Folds one scanned meta item into `map` (max-wins).  Items that are
/// not meta-shaped are ignored.
void ApplyMetaItem(const cloud::Item& item, GenerationMap* map);

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_GENERATION_H_
