#include "index/entry.h"

#include <algorithm>

#include "common/varint.h"
#include "index/keys.h"
#include "xml/tokenizer.h"

namespace webdex::index {
namespace {

constexpr uint32_t kNone = 0xFFFFFFFFu;

/// A doc-local open-addressed table in the (hash, link) slot style of
/// radb's string_index: each slot holds a record's 32-bit hash and
/// link = value + 1 (0 = empty); the front end owns the records behind
/// the values and decides what "equal" means.  Reset sizes it from the
/// document and clears only that many slots; it doubles at half load
/// into a spare slot array.  Both arrays keep their capacity, so a warm
/// thread never allocates here.
class SlotTable {
 public:
  void Reset(size_t expected) {
    size_t size = 256;
    while (size < expected * 2) size *= 2;
    Clear(&slots_, size);
    count_ = 0;
  }

  /// The value `eq` accepts among those filed under `hash`; on a miss,
  /// files and returns `add()`.
  template <typename Eq, typename Add>
  uint32_t FindOrAdd(uint32_t hash, const Eq& eq, const Add& add) {
    size_t i = hash & mask_;
    while (slots_[i].link != 0) {
      if (slots_[i].hash == hash && eq(slots_[i].link - 1)) {
        return slots_[i].link - 1;
      }
      i = (i + 1) & mask_;
    }
    const uint32_t value = add();
    slots_[i] = Slot{hash, value + 1};
    if (++count_ * 2 > mask_ + 1) Grow();
    return value;
  }

 private:
  struct Slot {
    uint32_t hash;
    uint32_t link;
  };

  void Clear(std::vector<Slot>* slots, size_t size) {
    if (slots->size() < size) slots->resize(size);
    std::fill_n(slots->begin(), size, Slot{0, 0});
    mask_ = size - 1;
  }

  void Grow() {
    const size_t old_size = mask_ + 1;
    Clear(&spare_, old_size * 2);
    for (size_t i = 0; i < old_size; ++i) {
      const Slot slot = slots_[i];
      if (slot.link == 0) continue;
      size_t j = slot.hash & mask_;
      while (spare_[j].link != 0) j = (j + 1) & mask_;
      spare_[j] = slot;
    }
    slots_.swap(spare_);
  }

  std::vector<Slot> slots_;
  std::vector<Slot> spare_;
  size_t mask_ = 0;
  uint32_t count_ = 0;
};

uint32_t MixToHash(uint64_t x) {
  x *= 0x9E3779B97F4A7C15ull;
  return static_cast<uint32_t>(x >> 32);
}

/// One distinct key of the document: the entry it becomes.
struct EntryState {
  KeyHandle key;
  uint32_t id_count = 0;
  uint32_t path_count = 0;
  /// Pre of the last ID recorded; IDs arrive in pre order, so a repeat
  /// is always the last one.
  uint32_t last_pre = kNone;
  /// A word entry's lowercased bytes in ExtractScratch::word_bytes.
  uint32_t word_begin = 0;
  uint32_t word_size = 0;
  /// Scatter cursors of the grouping pass.
  uint32_t id_next = 0;
  uint32_t path_next = 0;
};

/// One distinct (parent path, key) pair of the document: a doc-local
/// path ordinal.  A path's last component is its entry's key, so each
/// path belongs to exactly one entry.
struct PathRecord {
  PathHandle handle;
  uint32_t parent;  // ordinal, kNone at the root
  uint32_t entry;
};

/// A recorded (entry, structural ID) occurrence, deduplicated per entry.
struct Occurrence {
  uint32_t entry;
  xml::NodeId id;
};

/// Entry order: the key's first 8 bytes, big-endian, then the resolved
/// key on a tie.
struct SortKey {
  uint64_t prefix;
  std::string_view key;
  uint32_t entry;
};

uint64_t BigEndianPrefix(std::string_view key) {
  uint64_t prefix = 0;
  const size_t n = std::min<size_t>(key.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    prefix |= uint64_t{static_cast<unsigned char>(key[i])} << (56 - 8 * i);
  }
  return prefix;
}

/// Per-thread extraction state: a front cache of the document's keys
/// and paths ahead of the shared InternCore, plus the grouping buffers.
/// Everything is reset per document but keeps its capacity, so
/// steady-state extraction allocates nothing but the DocIndex's own
/// three slabs.
struct ExtractScratch {
  std::vector<EntryState> entries;
  std::vector<PathRecord> paths;
  std::vector<Occurrence> occurrences;
  std::vector<SortKey> sort_keys;
  /// Word bytes -> entry, compared case-folded against word_bytes.
  SlotTable word_table;
  /// Element, attribute-name and attribute-value KeyHandle -> entry.
  SlotTable key_table;
  /// (parent ordinal, entry) -> path ordinal.
  SlotTable path_table;
  /// Every cached word as its key, "w" + the lowercased word.
  std::string word_bytes;
  /// Per document label, its entry once met.
  std::vector<uint32_t> label_entries;
  /// Per node index, the element's path ordinal (read only for
  /// elements).
  std::vector<uint32_t> element_paths;
  /// Key and path assembly for the interner's misses.
  std::string key_buffer;
  std::string path_buffer;

  void Reset(const xml::Document& doc) {
    // Sized from the node count, so a fragment resets little and a cold
    // thread allocates each buffer about once rather than at every
    // doubling.  XMark documents, full sites and fragments alike, hold
    // per node about 0.2 distinct words, 0.3-0.6 distinct keys and
    // paths, 0.13 attributes and 2-2.3 deduplicated occurrences.
    const size_t nodes = doc.nodes().size();
    entries.clear();
    entries.reserve(nodes * 2 / 3);
    paths.clear();
    paths.reserve(nodes * 2 / 3);
    occurrences.clear();
    occurrences.reserve(nodes * 5 / 2);
    word_bytes.clear();
    word_bytes.reserve(nodes * 2);
    word_table.Reset(nodes / 4);
    key_table.Reset(doc.label_count() + nodes / 8);
    path_table.Reset(nodes / 2);
    label_entries.assign(doc.label_count(), kNone);
    element_paths.resize(nodes);
    key_buffer.reserve(256);
    path_buffer.reserve(256);
  }
};

ExtractScratch& ScratchForThread() {
  thread_local ExtractScratch scratch;
  return scratch;
}

/// One document's walk: resolves each occurrence to its entry and path
/// ordinal through the front cache, and goes to the shared interner only
/// on a miss.  Each distinct key and path is interned at its first
/// occurrence in pre order, as a node-by-node walk would intern it.
class Walker {
 public:
  Walker(const xml::Document& doc, InternCore* core, ExtractScratch* scratch)
      : doc_(doc), keys_(core->keys()), dict_(core->paths()), s_(*scratch) {}

  void Run(bool include_words) {
    for (const xml::Node& node : doc_.nodes()) {
      const uint32_t parent_path = node.parent() == xml::kNoParent
                                       ? kNone
                                       : s_.element_paths[node.parent()];
      switch (node.kind()) {
        case xml::NodeKind::kElement: {
          const uint32_t entry = LabelEntry(node, kElementPrefix);
          Record(entry, node.id());
          s_.element_paths[node.index()] = PathOf(parent_path, entry);
          break;
        }
        case xml::NodeKind::kAttribute: {
          // Two keys per attribute: a‖name and a‖name value (Section 5).
          const uint32_t name_entry = LabelEntry(node, kAttributePrefix);
          Record(name_entry, node.id());
          const uint32_t name_path = PathOf(parent_path, name_entry);
          const uint32_t value_entry = KeyEntry(InternAttributeValueKey(
              keys_, doc_.label(node), doc_.value(node), &s_.key_buffer));
          Record(value_entry, node.id());
          PathOf(parent_path, value_entry);
          // Attribute-value words share the attribute's structural ID (an
          // attribute is a leaf, so its value has no separate position);
          // the key twig connects them with a self edge.
          if (include_words) Words(doc_.value(node), node.id(), name_path);
          break;
        }
        case xml::NodeKind::kText:
          // Word occurrences carry the text node's ID: a child of the
          // enclosing element in (pre, post, depth) space.
          if (include_words) Words(doc_.value(node), node.id(), parent_path);
          break;
      }
    }
  }

 private:
  uint32_t NewEntry(KeyHandle key) {
    s_.entries.push_back(EntryState{key});
    return static_cast<uint32_t>(s_.entries.size() - 1);
  }

  /// The entry of an element or attribute-name key, interned once per
  /// document label.
  uint32_t LabelEntry(const xml::Node& node, char prefix) {
    uint32_t& entry = s_.label_entries[node.label_id()];
    if (entry == kNone) {
      const std::string_view label = doc_.label(node);
      entry = KeyEntry(prefix == kElementPrefix
                           ? InternElementKey(keys_, label, &s_.key_buffer)
                           : InternAttributeNameKey(keys_, label,
                                                    &s_.key_buffer));
    }
    return entry;
  }

  uint32_t KeyEntry(KeyHandle key) {
    return s_.key_table.FindOrAdd(
        MixToHash(key),
        [this, key](uint32_t entry) { return s_.entries[entry].key == key; },
        [this, key] { return NewEntry(key); });
  }

  /// Records `id` under `entry`; false when it repeats the entry's last
  /// ID (a word repeated within one text node or attribute value).
  bool Record(uint32_t entry, const xml::NodeId& id) {
    EntryState& e = s_.entries[entry];
    if (e.last_pre == id.pre) return false;
    e.last_pre = id.pre;
    e.id_count += 1;
    s_.occurrences.push_back(Occurrence{entry, id});
    return true;
  }

  /// The ordinal of `parent`/key(entry), extending the shared PathDict
  /// on a miss.
  uint32_t PathOf(uint32_t parent, uint32_t entry) {
    return s_.path_table.FindOrAdd(
        MixToHash(uint64_t{parent} << 32 | entry),
        [this, parent, entry](uint32_t ordinal) {
          const PathRecord& p = s_.paths[ordinal];
          return p.parent == parent && p.entry == entry;
        },
        [this, parent, entry] {
          const PathHandle parent_handle =
              parent == kNone ? kNoHandle : s_.paths[parent].handle;
          s_.paths.push_back(PathRecord{
              dict_.Extend(parent_handle, s_.entries[entry].key,
                           &s_.path_buffer),
              parent, entry});
          s_.entries[entry].path_count += 1;
          return static_cast<uint32_t>(s_.paths.size() - 1);
        });
  }

  /// The entry of `word`'s w‖word key.  The word is hashed lowercased in
  /// one pass and compared case-folded against the cached bytes; only a
  /// miss copies it (into word_bytes, as its key) and interns it.
  uint32_t WordEntry(std::string_view word) {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the lowered bytes
    for (const char c : word) {
      h = (h ^ static_cast<unsigned char>(xml::LowerAscii(c))) *
          0x100000001b3ull;
    }
    return s_.word_table.FindOrAdd(
        static_cast<uint32_t>(h ^ (h >> 32)),
        [this, word](uint32_t entry) {
          const EntryState& e = s_.entries[entry];
          if (e.word_size != word.size()) return false;
          const char* cached = s_.word_bytes.data() + e.word_begin;
          for (size_t i = 0; i < word.size(); ++i) {
            if (xml::LowerAscii(word[i]) != cached[i]) return false;
          }
          return true;
        },
        [this, word] {
          const size_t key_begin = s_.word_bytes.size();
          s_.word_bytes.push_back(kWordPrefix);
          for (const char c : word) {
            s_.word_bytes.push_back(xml::LowerAscii(c));
          }
          const uint32_t entry = NewEntry(keys_.Intern(
              std::string_view(s_.word_bytes).substr(key_begin)));
          s_.entries[entry].word_begin = static_cast<uint32_t>(key_begin + 1);
          s_.entries[entry].word_size = static_cast<uint32_t>(word.size());
          return entry;
        });
  }

  void Words(std::string_view text, const xml::NodeId& id,
             uint32_t parent_path) {
    xml::ForEachWord(text, [&](std::string_view word) {
      const uint32_t entry = WordEntry(word);
      // A repeated occurrence has this node's path already.
      if (Record(entry, id)) PathOf(parent_path, entry);
    });
  }

  const xml::Document& doc_;
  StringInterner& keys_;
  PathDict& dict_;
  ExtractScratch& s_;
};

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
  scratch.Reset(doc);
  Walker(doc, core, &scratch).Run(options.include_words);

  // Lay the entries' IDs and paths out in first-seen entry order, then
  // scatter: occurrences arrive in pre order and deduplicated, and each
  // distinct path belongs to exactly one entry.
  std::vector<EntryState>& entries = scratch.entries;
  uint32_t id_total = 0;
  uint32_t path_total = 0;
  for (EntryState& e : entries) {
    e.id_next = id_total;
    e.path_next = path_total;
    id_total += e.id_count;
    path_total += e.path_count;
  }
  index.ids_.resize(id_total);
  index.paths_.resize(path_total);
  for (const Occurrence& occ : scratch.occurrences) {
    index.ids_[entries[occ.entry].id_next++] = occ.id;
  }
  for (const PathRecord& p : scratch.paths) {
    index.paths_[entries[p.entry].path_next++] = p.handle;
  }

  // An entry's paths order by their resolved strings (the legacy map's
  // sorted-vector contract, and what keeps serialization byte-identical);
  // a single path needs no sort.
  const PathDict& dict = core->paths();
  for (const EntryState& e : entries) {
    if (e.path_count < 2) continue;
    auto end = index.paths_.begin() + e.path_next;
    std::sort(end - e.path_count, end, [&dict](PathHandle a, PathHandle b) {
      return dict.Resolve(a) < dict.Resolve(b);
    });
  }

  // Entries iterate in resolved-key-string order (the legacy std::map
  // contract); handle values — which depend on which thread interned a
  // key first — never influence the order.
  const StringInterner& keys = core->keys();
  std::vector<SortKey>& order = scratch.sort_keys;
  order.clear();
  order.reserve(entries.size());
  for (uint32_t i = 0; i < entries.size(); ++i) {
    const std::string_view key = keys.Resolve(entries[i].key);
    order.push_back(SortKey{BigEndianPrefix(key), key, i});
  }
  std::sort(order.begin(), order.end(),
            [](const SortKey& a, const SortKey& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              return a.key < b.key;
            });
  index.entries_.resize(entries.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const EntryState& e = entries[order[i].entry];
    index.entries_[i] = DocIndex::Entry{e.key, e.id_next - e.id_count,
                                        e.id_count, e.path_next - e.path_count,
                                        e.path_count};
  }
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
