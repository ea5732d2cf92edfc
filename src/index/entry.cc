#include "index/entry.h"

#include <algorithm>

#include "common/varint.h"
#include "index/keys.h"
#include "xml/tokenizer.h"

namespace webdex::index {
namespace {

/// One key occurrence recorded during the walk; `entry` is filled by the
/// grouping pass.
struct Occurrence {
  KeyHandle key;
  PathHandle path;
  xml::NodeId id;
  uint32_t entry;
};

/// Per-thread reusable extraction state: the occurrence buffer plus a
/// tiny open-addressed KeyHandle -> dense-entry-index table.  Everything
/// is cleared per document but keeps its capacity, so steady-state
/// extraction allocates nothing.
struct ExtractScratch {
  std::vector<Occurrence> occurrences;
  /// Packed slots: high 32 bits = key+1 (0 = empty), low 32 = entry idx.
  std::vector<uint64_t> table;
  uint32_t distinct = 0;
  std::vector<uint32_t> id_cursor;
  std::vector<uint32_t> path_cursor;
  /// Per document label, its element or attribute-name key once met.
  std::vector<KeyHandle> label_keys;
  /// Per node index, the element's path (read only for elements).
  std::vector<PathHandle> element_paths;

  void Reset() {
    occurrences.clear();
    distinct = 0;  // GrowTable re-zeroes the slots before use
  }

  static size_t SlotOf(KeyHandle key, size_t mask) {
    // Fibonacci hashing spreads consecutive handles.
    return (uint64_t{key} * 11400714819323198485ull >> 33) & mask;
  }

  void GrowTable(size_t at_least) {
    size_t size = 1024;
    while (size < at_least * 2) size *= 2;
    if (size <= table.size()) {
      std::fill(table.begin(), table.end(), 0);
      return;
    }
    table.assign(size, 0);
  }

  uint32_t EntryOf(KeyHandle key) {
    const size_t mask = table.size() - 1;
    size_t i = SlotOf(key, mask);
    while (true) {
      const uint64_t slot = table[i];
      if (slot == 0) {
        table[i] = (uint64_t{key} + 1) << 32 | distinct;
        return distinct++;
      }
      if ((slot >> 32) == uint64_t{key} + 1) {
        return static_cast<uint32_t>(slot);
      }
      i = (i + 1) & mask;
    }
  }
};

ExtractScratch& ScratchForThread() {
  thread_local ExtractScratch scratch;
  return scratch;
}

/// Walks the document's nodes in pre order, recording every key
/// occurrence.  Each element and attribute-name key is interned once per
/// document label, at the label's first node, so the interner sees the
/// same first-interning order as a node-by-node walk.
void Walk(const xml::Document& doc, StringInterner& keys, PathDict& paths,
          const ExtractOptions& options, ExtractScratch& scratch) {
  std::vector<Occurrence>& occurrences = scratch.occurrences;
  auto add = [&occurrences](KeyHandle key, const xml::NodeId& id,
                            PathHandle path) {
    occurrences.push_back(Occurrence{key, path, id, 0});
  };
  scratch.label_keys.assign(doc.label_count(), kNoHandle);
  scratch.element_paths.resize(doc.nodes().size());
  for (const xml::Node& node : doc.nodes()) {
    const PathHandle parent_path = node.parent() == xml::kNoParent
                                       ? kNoHandle
                                       : scratch.element_paths[node.parent()];
    switch (node.kind()) {
      case xml::NodeKind::kElement: {
        KeyHandle& key = scratch.label_keys[node.label_id()];
        if (key == kNoHandle) key = InternElementKey(keys, doc.label(node));
        const PathHandle path = paths.Extend(parent_path, key);
        scratch.element_paths[node.index()] = path;
        add(key, node.id(), path);
        break;
      }
      case xml::NodeKind::kAttribute: {
        // Two keys per attribute: a‖name and a‖name value (Section 5).
        KeyHandle& name_key = scratch.label_keys[node.label_id()];
        if (name_key == kNoHandle) {
          name_key = InternAttributeNameKey(keys, doc.label(node));
        }
        const PathHandle name_path = paths.Extend(parent_path, name_key);
        add(name_key, node.id(), name_path);
        const KeyHandle value_key =
            InternAttributeValueKey(keys, doc.label(node), doc.value(node));
        add(value_key, node.id(), paths.Extend(parent_path, value_key));
        if (options.include_words) {
          // Attribute-value words share the attribute's structural ID (an
          // attribute is a leaf, so its value has no separate position);
          // the key twig connects them with a self edge.
          xml::ForEachWord(doc.value(node), [&](std::string_view word) {
            const KeyHandle word_key = InternWordKey(keys, word);
            add(word_key, node.id(), paths.Extend(name_path, word_key));
          });
        }
        break;
      }
      case xml::NodeKind::kText: {
        if (!options.include_words) break;
        xml::ForEachWord(doc.value(node), [&](std::string_view word) {
          const KeyHandle word_key = InternWordKey(keys, word);
          // Word occurrences carry the text node's ID: a child of the
          // enclosing element in (pre, post, depth) space.
          add(word_key, node.id(), paths.Extend(parent_path, word_key));
        });
        break;
      }
    }
  }
}

}  // namespace

const DocIndex::Entry* DocIndex::Find(std::string_view key) const {
  const StringInterner& keys = core_->keys();
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [&keys](const Entry& e, std::string_view k) {
        return keys.Resolve(e.key) < k;
      });
  if (it == entries_.end() || keys.Resolve(it->key) != key) return nullptr;
  return &*it;
}

std::vector<std::string> DocIndex::PathVector(const Entry& e) const {
  std::vector<std::string> out;
  out.reserve(e.path_count);
  for (uint32_t i = 0; i < e.path_count; ++i) {
    out.emplace_back(path(paths(e)[i]));
  }
  return out;
}

DocIndex ExtractDocIndexInto(const xml::Document& doc,
                             const ExtractOptions& options, InternCore* core) {
  DocIndex index(core);
  ExtractScratch& scratch = ScratchForThread();
  scratch.Reset();

  Walk(doc, core->keys(), core->paths(), options, scratch);

  // Group occurrences by key: assign each a dense entry index, count, and
  // scatter IDs / paths into the two slabs.
  scratch.GrowTable(scratch.occurrences.size());
  for (Occurrence& occ : scratch.occurrences) {
    occ.entry = scratch.EntryOf(occ.key);
  }
  const uint32_t distinct = scratch.distinct;
  index.entries_.assign(distinct, DocIndex::Entry{});
  for (const Occurrence& occ : scratch.occurrences) {
    DocIndex::Entry& e = index.entries_[occ.entry];
    e.key = occ.key;
    e.id_count += 1;
    e.path_count += 1;
  }
  uint32_t id_offset = 0;
  uint32_t path_offset = 0;
  for (DocIndex::Entry& e : index.entries_) {
    e.id_begin = id_offset;
    e.path_begin = path_offset;
    id_offset += e.id_count;
    path_offset += e.path_count;
  }
  index.ids_.resize(id_offset);
  index.paths_.resize(path_offset);
  scratch.id_cursor.assign(distinct, 0);
  scratch.path_cursor.assign(distinct, 0);
  for (const Occurrence& occ : scratch.occurrences) {
    const DocIndex::Entry& e = index.entries_[occ.entry];
    index.ids_[e.id_begin + scratch.id_cursor[occ.entry]++] = occ.id;
    index.paths_[e.path_begin + scratch.path_cursor[occ.entry]++] = occ.path;
  }

  // Per entry: IDs arrive in document order already (pre-order walk), but
  // repeated words within one text node produce duplicates worth
  // removing; paths order by their resolved strings — the legacy map's
  // sorted-vector contract, and what keeps serialization byte-identical.
  const PathDict& dict = core->paths();
  for (DocIndex::Entry& e : index.entries_) {
    auto id_begin = index.ids_.begin() + e.id_begin;
    auto id_end = id_begin + e.id_count;
    if (!std::is_sorted(id_begin, id_end)) std::sort(id_begin, id_end);
    e.id_count = static_cast<uint32_t>(
        std::distance(id_begin, std::unique(id_begin, id_end)));

    auto path_begin = index.paths_.begin() + e.path_begin;
    auto path_end = path_begin + e.path_count;
    std::sort(path_begin, path_end, [&dict](PathHandle a, PathHandle b) {
      return a != b && dict.Resolve(a) < dict.Resolve(b);
    });
    e.path_count = static_cast<uint32_t>(
        std::distance(path_begin, std::unique(path_begin, path_end)));
  }

  // Entries iterate in resolved-key-string order (the legacy std::map
  // contract); handle values — which depend on which thread interned a
  // key first — never influence the order.
  const StringInterner& keys = core->keys();
  std::sort(index.entries_.begin(), index.entries_.end(),
            [&keys](const DocIndex::Entry& a, const DocIndex::Entry& b) {
              return a.key != b.key &&
                     keys.Resolve(a.key) < keys.Resolve(b.key);
            });
  return index;
}

DocIndex ExtractDocIndex(const xml::Document& doc,
                         const ExtractOptions& options) {
  return ExtractDocIndexInto(doc, options, &InternCore::Global());
}

DocIndexStats ComputeStats(const DocIndex& index) {
  DocIndexStats stats;
  for (const auto& entry : index.entries()) {
    stats.keys += 1;
    stats.ids += entry.id_count;
    for (uint32_t i = 0; i < entry.path_count; ++i) {
      stats.path_bytes += index.path(index.paths(entry)[i]).size();
    }
  }
  return stats;
}

void AppendEncodedId(std::string* blob, const xml::NodeId& id) {
  PutVarint64(blob, id.pre);
  PutVarint64(blob, id.post);
  PutVarint64(blob, id.depth);
}

std::string EncodeIds(const std::vector<xml::NodeId>& ids) {
  std::string blob;
  blob.reserve(ids.size() * 4);
  for (const auto& id : ids) {
    AppendEncodedId(&blob, id);
  }
  return blob;
}

Result<std::vector<xml::NodeId>> DecodeIds(std::string_view blob) {
  std::vector<xml::NodeId> ids;
  WEBDEX_RETURN_IF_ERROR(AppendDecodedIds(blob, &ids));
  return ids;
}

Status AppendDecodedIds(std::string_view blob,
                        std::vector<xml::NodeId>* out) {
  size_t offset = 0;
  while (offset < blob.size()) {
    xml::NodeId id;
    WEBDEX_ASSIGN_OR_RETURN(uint64_t pre, GetVarint64(blob, &offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t post, GetVarint64(blob, &offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t depth, GetVarint64(blob, &offset));
    if (pre > UINT32_MAX || post > UINT32_MAX || depth > UINT32_MAX) {
      return Status::Corruption("node ID component exceeds 32 bits");
    }
    id.pre = static_cast<uint32_t>(pre);
    id.post = static_cast<uint32_t>(post);
    id.depth = static_cast<uint32_t>(depth);
    out->push_back(id);
  }
  return Status::OK();
}

void AppendFrontCodedPath(std::string* blob, std::string_view previous,
                          std::string_view path) {
  const size_t limit = std::min(previous.size(), path.size());
  size_t shared = 0;
  while (shared < limit && previous[shared] == path[shared]) ++shared;
  PutVarint64(blob, shared);
  PutVarint64(blob, path.size() - shared);
  blob->append(path.data() + shared, path.size() - shared);
}

std::string EncodePaths(const std::vector<std::string>& paths) {
  std::string blob;
  std::string_view previous;
  for (const std::string& path : paths) {
    AppendFrontCodedPath(&blob, previous, path);
    previous = path;
  }
  return blob;
}

Result<std::vector<std::string>> DecodePaths(std::string_view blob) {
  std::string bytes;
  std::vector<size_t> ends;
  WEBDEX_RETURN_IF_ERROR(AppendDecodedPaths(blob, &bytes, &ends));
  std::vector<std::string> paths;
  paths.reserve(ends.size());
  size_t begin = 0;
  for (const size_t end : ends) {
    paths.emplace_back(bytes, begin, end - begin);
    begin = end;
  }
  return paths;
}

Status AppendDecodedPaths(std::string_view blob, std::string* paths,
                          std::vector<size_t>* ends) {
  size_t offset = 0;
  size_t previous = paths->size();  // where the predecessor path starts
  while (offset < blob.size()) {
    WEBDEX_ASSIGN_OR_RETURN(uint64_t shared, GetVarint64(blob, &offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t suffix, GetVarint64(blob, &offset));
    if (shared > paths->size() - previous) {
      return Status::Corruption("front-coded prefix exceeds predecessor");
    }
    if (suffix > blob.size() - offset) {
      return Status::Corruption("truncated front-coded path");
    }
    const size_t start = paths->size();
    paths->append(*paths, previous, shared);
    paths->append(blob.substr(offset, suffix));
    offset += suffix;
    previous = start;
    ends->push_back(paths->size());
  }
  return Status::OK();
}

std::string HexArmour(std::string_view binary) {
  std::string out;
  AppendHexArmour(&out, binary);
  return out;
}

void AppendHexArmour(std::string* out, std::string_view binary) {
  static const char* kHex = "0123456789abcdef";
  out->reserve(out->size() + binary.size() * 2);
  for (unsigned char c : binary) {
    out->push_back(kHex[c >> 4]);
    out->push_back(kHex[c & 0xF]);
  }
}

Result<std::string> HexDearmour(std::string_view text) {
  std::string out;
  WEBDEX_RETURN_IF_ERROR(AppendHexDearmour(text, &out));
  return out;
}

Status AppendHexDearmour(std::string_view text, std::string* out) {
  if (text.size() % 2 != 0) {
    return Status::Corruption("odd-length hex blob");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out->reserve(out->size() + text.size() / 2);
  for (size_t i = 0; i < text.size(); i += 2) {
    const int hi = nibble(text[i]);
    const int lo = nibble(text[i + 1]);
    if (hi < 0 || lo < 0) return Status::Corruption("bad hex digit");
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return Status::OK();
}

}  // namespace webdex::index
