#ifndef WEBDEX_INDEX_ENTRY_H_
#define WEBDEX_INDEX_ENTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "index/intern.h"
#include "xml/dom.h"

namespace webdex::index {

/// All index data extracted from one document, keyed by interned handles
/// and backed by flat slabs (the native index core — docs/PERFORMANCE.md).
///
/// The legacy representation was `std::map<std::string, NodeEntry>` with
/// per-key `vector<string>` paths: every occurrence hashed, compared and
/// copied heap strings.  Here each entry is three integers' worth of
/// bookkeeping — an interned key handle plus [begin, count) ranges into
/// two document-wide slabs: structural IDs (`ids`) and interned path
/// handles (`paths`).  Key and path *strings* live once in the shared
/// InternCore arena.
///
/// Entries iterate sorted by resolved key string, each entry's IDs sorted
/// by pre-order and deduplicated, each entry's paths sorted by resolved
/// path string and deduplicated — exactly the legacy map's iteration
/// contract, so serialization (and the stored dump bytes) are unchanged.
class DocIndex {
 public:
  struct Entry {
    KeyHandle key = kNoHandle;
    uint32_t id_begin = 0;
    uint32_t id_count = 0;
    uint32_t path_begin = 0;
    uint32_t path_count = 0;
  };

  DocIndex() : core_(&InternCore::Global()) {}
  explicit DocIndex(const InternCore* core) : core_(core) {}

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const InternCore& core() const { return *core_; }

  /// Sorted by resolved key string.
  const std::vector<Entry>& entries() const { return entries_; }

  std::string_view key(const Entry& e) const {
    return core_->keys().Resolve(e.key);
  }
  /// The entry's sorted, deduplicated structural IDs.
  const xml::NodeId* ids(const Entry& e) const {
    return ids_.data() + e.id_begin;
  }
  /// The entry's path handles, sorted by resolved string, deduplicated.
  const PathHandle* paths(const Entry& e) const {
    return paths_.data() + e.path_begin;
  }
  std::string_view path(PathHandle handle) const {
    return core_->paths().Resolve(handle);
  }

  /// Binary search by key string; nullptr when absent.
  const Entry* Find(std::string_view key) const;
  bool Contains(std::string_view key) const { return Find(key) != nullptr; }

  /// Materializing conveniences for tests and non-hot-path callers.
  std::vector<xml::NodeId> IdVector(const Entry& e) const {
    return {ids(e), ids(e) + e.id_count};
  }
  std::vector<std::string> PathVector(const Entry& e) const;

 private:
  friend DocIndex ExtractDocIndexInto(const xml::Document&,
                                      const struct ExtractOptions&,
                                      InternCore*);

  const InternCore* core_;
  std::vector<Entry> entries_;
  std::vector<xml::NodeId> ids_;
  std::vector<PathHandle> paths_;
};

struct ExtractOptions {
  /// Emit w‖word keys for text and attribute-value words.  Figure 8
  /// contrasts the strategies with and without full-text indexing.
  bool include_words = true;
  /// Store LUP / 2LUPI path sets front-coded (see EncodePaths) instead of
  /// as one attribute value per path.  This is the paper's Section 8.5
  /// suggestion — "further compression of the paths in the LUP index
  /// could probably make it even more competitive" — implemented.
  /// Look-ups must be configured identically to the build.
  bool compress_paths = false;
  /// Generation stamp for the postings this extraction produces
  /// (index/generation.h).  0 — the static corpus — emits no stamp
  /// attribute, keeping the stored bytes identical to the pre-mutability
  /// index; upserts extract at their allocated generation > 0 and every
  /// posting carries a kGenAttr stamp.
  uint64_t generation = 0;
};

/// Walks a parsed document and builds its DocIndex: element keys,
/// attribute name + valued keys, and word keys.  Word occurrences carry
/// the structural ID of their text node (a child of the enclosing
/// element); attribute-value words carry the attribute's own ID.
/// Interns into the global InternCore; safe to call from any host thread.
DocIndex ExtractDocIndex(const xml::Document& doc,
                         const ExtractOptions& options = {});

/// Same, interning into an explicit core (tests, isolation).
DocIndex ExtractDocIndexInto(const xml::Document& doc,
                             const ExtractOptions& options, InternCore* core);

/// Statistics of an extraction, for work accounting and the |op(D, I)|
/// metric of Section 7.1.
struct DocIndexStats {
  uint64_t keys = 0;
  uint64_t ids = 0;
  uint64_t path_bytes = 0;
};
DocIndexStats ComputeStats(const DocIndex& index);

// --- Structural-ID payload codec -----------------------------------------
//
// LUI / 2LUPI store a document's sorted IDs for a key as one binary
// attribute value: varint-encoded (pre, post, depth) triples (Sections
// 5.3, 8.2: "we exploit the fact that DynamoDB allows storing arbitrary
// binary objects ... compressed (encoded) sets of IDs in a single value").

/// Appends the encoding of `ids` (must be sorted by pre) to a fresh blob.
std::string EncodeIds(const std::vector<xml::NodeId>& ids);

/// Appends one ID's encoding to `blob` — the chunking loop's primitive.
void AppendEncodedId(std::string* blob, const xml::NodeId& id);

/// Decodes a blob; fails with Corruption on malformed input.
Result<std::vector<xml::NodeId>> DecodeIds(std::string_view blob);
/// Appends the IDs of `blob` to `*out` — the look-up's form, decoding
/// many blobs into one buffer.  On Corruption, `*out` may hold a prefix.
Status AppendDecodedIds(std::string_view blob, std::vector<xml::NodeId>* out);

/// Hex armouring for stores that only accept text values (SimpleDB):
/// doubles the size, which is precisely the storage/cost penalty the
/// paper measured against its earlier SimpleDB-based system (Table 7).
std::string HexArmour(std::string_view binary);
/// Appends HexArmour(binary) to `*out`.
void AppendHexArmour(std::string* out, std::string_view binary);
Result<std::string> HexDearmour(std::string_view text);
/// Appends HexDearmour(text) to `*out`; on Corruption, `*out` may hold a
/// prefix.
Status AppendHexDearmour(std::string_view text, std::string* out);

// --- Path-set codec (Section 8.5 extension) --------------------------------
//
// Front coding over the *sorted* path list: each path is stored as
// varint(shared-prefix length with its predecessor) + varint(suffix
// length) + suffix bytes.  Label paths of one key share long prefixes
// ("/esite/eregions/eitem/..."), so this typically shrinks LUP payloads
// by 2-4x.

/// Encodes `paths` (must be sorted) as one front-coded blob.
std::string EncodePaths(const std::vector<std::string>& paths);

/// Appends one path of a blob: `path` front-coded against `previous`,
/// the blob's path before it (empty for its first path).
void AppendFrontCodedPath(std::string* blob, std::string_view previous,
                          std::string_view path);

/// Decodes a front-coded blob back into the sorted path list.
Result<std::vector<std::string>> DecodePaths(std::string_view blob);
/// Appends the decoded paths of `blob` to `*paths` back to back, and the
/// end offset of each in `*paths` to `*ends`.  On Corruption, both may
/// hold a prefix.
Status AppendDecodedPaths(std::string_view blob, std::string* paths,
                          std::vector<size_t>* ends);

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_ENTRY_H_
