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

struct WalkContext {
  StringInterner* keys;
  PathDict* paths;
  const ExtractOptions* options;
  std::vector<Occurrence>* occurrences;

  void Add(KeyHandle key, const xml::NodeId& id, PathHandle path) {
    occurrences->push_back(Occurrence{key, path, id, 0});
  }
};

void Walk(const xml::Node& node, PathHandle parent_path, WalkContext& ctx) {
  switch (node.kind()) {
    case xml::NodeKind::kElement: {
      const KeyHandle key = InternElementKey(*ctx.keys, node.label());
      const PathHandle path = ctx.paths->Extend(parent_path, key);
      ctx.Add(key, node.id(), path);
      for (const auto& child : node.children()) {
        Walk(*child, path, ctx);
      }
      break;
    }
    case xml::NodeKind::kAttribute: {
      // Two keys per attribute: a‖name and a‖name value (Section 5).
      const KeyHandle name_key =
          InternAttributeNameKey(*ctx.keys, node.label());
      const PathHandle name_path = ctx.paths->Extend(parent_path, name_key);
      ctx.Add(name_key, node.id(), name_path);
      const KeyHandle value_key =
          InternAttributeValueKey(*ctx.keys, node.label(), node.value());
      ctx.Add(value_key, node.id(),
              ctx.paths->Extend(parent_path, value_key));
      if (ctx.options->include_words) {
        // Attribute-value words share the attribute's structural ID (an
        // attribute is a leaf, so its value has no separate position);
        // the key twig connects them with a self edge.
        xml::ForEachWord(node.value(), [&](std::string_view word) {
          const KeyHandle word_key = InternWordKey(*ctx.keys, word);
          ctx.Add(word_key, node.id(),
                  ctx.paths->Extend(name_path, word_key));
        });
      }
      break;
    }
    case xml::NodeKind::kText: {
      if (!ctx.options->include_words) break;
      xml::ForEachWord(node.value(), [&](std::string_view word) {
        const KeyHandle word_key = InternWordKey(*ctx.keys, word);
        // Word occurrences carry the text node's ID: a child of the
        // enclosing element in (pre, post, depth) space.
        ctx.Add(word_key, node.id(),
                ctx.paths->Extend(parent_path, word_key));
      });
      break;
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

  WalkContext ctx{&core->keys(), &core->paths(), &options,
                  &scratch.occurrences};
  Walk(doc.root(), kNoHandle, ctx);

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
    ids.push_back(id);
  }
  return ids;
}

namespace {

template <typename PathList>
std::string EncodePathsImpl(const PathList& paths) {
  std::string blob;
  std::string_view previous;
  bool have_previous = false;
  for (const auto& path : paths) {
    const std::string_view current(path);
    size_t shared = 0;
    if (have_previous) {
      const size_t limit = std::min(previous.size(), current.size());
      while (shared < limit && previous[shared] == current[shared]) {
        ++shared;
      }
    }
    PutVarint64(&blob, shared);
    PutVarint64(&blob, current.size() - shared);
    blob.append(current.data() + shared, current.size() - shared);
    previous = current;
    have_previous = true;
  }
  return blob;
}

}  // namespace

std::string EncodePaths(const std::vector<std::string>& paths) {
  return EncodePathsImpl(paths);
}

std::string EncodePathViews(const std::vector<std::string_view>& paths) {
  return EncodePathsImpl(paths);
}

Result<std::vector<std::string>> DecodePaths(std::string_view blob) {
  std::vector<std::string> paths;
  size_t offset = 0;
  std::string previous;
  while (offset < blob.size()) {
    WEBDEX_ASSIGN_OR_RETURN(uint64_t shared, GetVarint64(blob, &offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t suffix, GetVarint64(blob, &offset));
    if (shared > previous.size()) {
      return Status::Corruption("front-coded prefix exceeds predecessor");
    }
    if (suffix > blob.size() - offset) {
      return Status::Corruption("truncated front-coded path");
    }
    std::string path = previous.substr(0, shared);
    path.append(blob.substr(offset, suffix));
    offset += suffix;
    previous = path;
    paths.push_back(std::move(path));
  }
  return paths;
}

std::string HexArmour(std::string_view binary) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(binary.size() * 2);
  for (unsigned char c : binary) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

Result<std::string> HexDearmour(std::string_view text) {
  if (text.size() % 2 != 0) {
    return Status::Corruption("odd-length hex blob");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(text.size() / 2);
  for (size_t i = 0; i < text.size(); i += 2) {
    const int hi = nibble(text[i]);
    const int lo = nibble(text[i + 1]);
    if (hi < 0 || lo < 0) return Status::Corruption("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace webdex::index
