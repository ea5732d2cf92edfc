#include "query/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "xml/serializer.h"
#include "xml/structural_join.h"

namespace webdex::query {
namespace {

/// The embeddings of one pattern over a run of documents, in evaluation
/// order.  Each match has `width` output cells, then `join_width` join
/// cells, stored back to back in one byte buffer.
struct PatternRelation {
  size_t width = 0;
  size_t join_width = 0;
  std::string bytes;
  /// Per cell, its end offset in `bytes`; a cell begins where the one
  /// before it ends.
  std::vector<size_t> ends;
  /// The document of each match; its size is the match count.
  std::vector<const xml::Document*> docs;

  void AddCell(std::string_view value) {
    bytes.append(value);
    ends.push_back(bytes.size());
  }

  std::string_view Output(uint32_t match, size_t column) const {
    return Cell(match * (width + join_width) + column);
  }

  std::string_view Join(uint32_t match, int slot) const {
    return Cell(match * (width + join_width) + width +
                static_cast<size_t>(slot));
  }

  /// Appends `other`'s matches after this relation's own.
  void Append(const PatternRelation& other) {
    const size_t shift = bytes.size();
    bytes.append(other.bytes);
    for (const size_t end : other.ends) ends.push_back(shift + end);
    docs.insert(docs.end(), other.docs.begin(), other.docs.end());
  }

 private:
  std::string_view Cell(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(bytes).substr(begin, ends[i] - begin);
  }
};

/// Embeds one tree pattern into documents.  Reset runs the structural
/// twig join over the document's label streams, one per pattern node:
/// a node's satisfying set holds the stream members that pass its value
/// predicate and below which its whole pattern subtree embeds.  Binding
/// pattern nodes in pre-order, each from its satisfying set inside its
/// parent's binding, therefore never dead-ends.  Bindings are document
/// nodes; output strings are made only for full embeddings.
class PatternMatcher {
 public:
  explicit PatternMatcher(const TreePattern& pattern)
      : pattern_(pattern),
        streams_(static_cast<size_t>(pattern.size())),
        binding_(static_cast<size_t>(pattern.size()), nullptr) {
    for (const PatternNode* node : pattern.nodes()) {
      edges_.push_back({node->parent == nullptr ? -1 : node->parent->index,
                        node->axis == Axis::kChild
                            ? xml::TwigAxis::kChild
                            : xml::TwigAxis::kDescendant});
    }
    for (const PatternNode* node : pattern.output_nodes()) {
      slots_.push_back({node->index, node->want_cont, nullptr, {}});
    }
    num_outputs_ = slots_.size();
    for (const PatternNode* node : pattern.nodes()) {
      if (!node->join_tag.empty()) {
        slots_.push_back({node->index, false, nullptr, {}});
      }
    }
  }

  size_t num_outputs() const { return num_outputs_; }
  size_t num_joins() const { return slots_.size() - num_outputs_; }

  /// Points the matcher at `doc` and joins the pattern over it.  True
  /// when at least one embedding exists.
  bool Reset(const xml::Document& doc) {
    doc_ = &doc;
    for (Slot& slot : slots_) slot.cached = nullptr;
    for (const PatternNode* node : pattern_.nodes()) {
      auto& stream = streams_[static_cast<size_t>(node->index)];
      stream = doc.Labelled(node->is_attribute ? xml::NodeKind::kAttribute
                                               : xml::NodeKind::kElement,
                            node->label);
      if (stream.empty()) return false;  // skip the join: nothing embeds
    }
    // A child edge on the pattern root anchors it at the document
    // element.
    const bool anchored = pattern_.root().axis == Axis::kChild;
    auto keep = [&](size_t i, const xml::Node* node) {
      if (i == 0 && anchored && node != &doc.root()) return false;
      const Predicate& predicate = pattern_.nodes()[i]->predicate;
      if (predicate.kind == PredicateKind::kNone) return true;
      predicate_value_.clear();
      doc.AppendStringValue(*node, &predicate_value_);
      return predicate.Matches(predicate_value_);
    };
    return xml::SatisfyTwig<const xml::Node*>(edges_, streams_, keep, &sat_,
                                              &id_ops_);
  }

  /// Calls `emit()` once per embedding, in lexicographic order of the
  /// bindings' document order, the bindings taken in pattern pre-order.
  template <typename Emit>
  void ForEachEmbedding(Emit&& emit) {
    Enumerate(0, emit);
  }

  /// Appends the current embedding's outputs, in pattern pre-order.
  void AppendOutputs(std::vector<std::string>* out) {
    for (size_t s = 0; s < num_outputs_; ++s) out->push_back(Value(s));
  }

  /// Appends the string values of the current embedding's join-tagged
  /// nodes, in pattern pre-order.
  void AppendJoins(std::vector<std::string>* out) {
    for (size_t s = num_outputs_; s < slots_.size(); ++s) {
      out->push_back(Value(s));
    }
  }

  /// Appends the current embedding to `rel`: its outputs, then its join
  /// values.
  void AppendMatch(const xml::Document* doc, PatternRelation* rel) {
    for (size_t s = 0; s < slots_.size(); ++s) rel->AddCell(Value(s));
    rel->docs.push_back(doc);
  }

 private:
  /// A node whose string is materialized per embedding, and the last
  /// string made for it.  Consecutive embeddings often share bindings.
  struct Slot {
    int pattern_index;
    bool cont;
    const xml::Node* cached = nullptr;
    std::string value;
  };

  const std::string& Value(size_t s) {
    Slot& slot = slots_[s];
    const xml::Node* node = binding_[static_cast<size_t>(slot.pattern_index)];
    if (slot.cached != node) {
      slot.cached = node;
      if (slot.cont) {
        slot.value = xml::Serialize(*doc_, *node);
      } else {
        slot.value.clear();
        doc_->AppendStringValue(*node, &slot.value);
      }
    }
    return slot.value;
  }

  template <typename Emit>
  void Enumerate(size_t i, Emit& emit) {
    if (i == binding_.size()) {
      emit();
      return;
    }
    auto bind = [&](const xml::Node* node) {
      binding_[i] = node;
      Enumerate(i + 1, emit);
      return false;
    };
    const std::span<const xml::Node* const> sat = sat_[i];
    const xml::TwigEdge& edge = edges_[i];
    if (edge.parent < 0) {
      for (const xml::Node* node : sat) bind(node);
      return;
    }
    xml::AnyRelated(sat, binding_[static_cast<size_t>(edge.parent)]->id(),
                    edge.axis, &id_ops_, bind);
  }

  const TreePattern& pattern_;
  /// The document the last Reset joined over.
  const xml::Document* doc_ = nullptr;
  /// The pattern as a twig: per pattern node, its parent and edge axis.
  std::vector<xml::TwigEdge> edges_;
  /// Per pattern node, the current document's stream of its label.
  std::vector<std::span<const xml::Node* const>> streams_;
  /// Per pattern node, its satisfying set in the current document.
  std::vector<std::vector<const xml::Node*>> sat_;
  /// Per pattern node, its binding in the embedding being enumerated.
  std::vector<const xml::Node*> binding_;
  /// Output slots first, then join slots.
  std::vector<Slot> slots_;
  size_t num_outputs_ = 0;
  /// The join's work count; evaluation is charged by bytes instead.
  uint64_t id_ops_ = 0;
  /// Buffer for the string value a predicate tests.
  std::string predicate_value_;
};

/// Step 1 over one contiguous run of documents: every pattern's
/// relation, and the work counters of the run.  Touches no thread-local
/// state, so a chunk runs on any thread and hands its counters back by
/// value.
struct Chunk {
  std::vector<PatternRelation> relations;
  uint64_t doc_bytes_scanned = 0;
  uint64_t embeddings_found = 0;
};

Chunk MatchChunk(const std::vector<TreePattern>& patterns,
                 std::span<const xml::Document* const> docs) {
  Chunk chunk;
  chunk.relations.resize(patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    PatternMatcher matcher(patterns[p]);
    PatternRelation& rel = chunk.relations[p];
    rel.width = matcher.num_outputs();
    rel.join_width = matcher.num_joins();
    for (const xml::Document* doc : docs) {
      chunk.doc_bytes_scanned += doc->size_bytes();
      if (!matcher.Reset(*doc)) continue;
      matcher.ForEachEmbedding([&] { matcher.AppendMatch(doc, &rel); });
    }
    chunk.embeddings_found += rel.docs.size();
  }
  return chunk;
}

/// Below this many documents step 1 stays on the calling thread: a
/// handful of documents matches faster than the pool wakes up.
constexpr size_t kMinFanOutDocs = 8;

/// How many chunks step 1 splits `docs` into on `pool`: one per pool
/// thread, each of at least 4 documents.
size_t FanOutChunks(size_t docs, const common::ThreadPool* pool) {
  if (pool == nullptr || docs < kMinFanOutDocs) return 1;
  return std::min(static_cast<size_t>(pool->size()), docs / 4);
}

/// Concatenates the chunks' relations in chunk order, so each relation
/// lists its matches in `docs` order.
std::vector<PatternRelation> MergeChunks(std::vector<Chunk>* chunks) {
  std::vector<PatternRelation> relations =
      std::move(chunks->front().relations);
  for (size_t p = 0; p < relations.size(); ++p) {
    PatternRelation& rel = relations[p];
    size_t bytes = rel.bytes.size();
    size_t cells = rel.ends.size();
    size_t matches = rel.docs.size();
    for (size_t c = 1; c < chunks->size(); ++c) {
      const PatternRelation& part = (*chunks)[c].relations[p];
      bytes += part.bytes.size();
      cells += part.ends.size();
      matches += part.docs.size();
    }
    rel.bytes.reserve(bytes);
    rel.ends.reserve(cells);
    rel.docs.reserve(matches);
    for (size_t c = 1; c < chunks->size(); ++c) {
      rel.Append((*chunks)[c].relations[p]);
    }
  }
  return relations;
}

/// The join slot of pattern node `node`: its rank among the pattern's
/// join-tagged nodes in pre-order, or -1 when it carries no tag.
int JoinSlot(const TreePattern& pattern, int node) {
  int slot = 0;
  for (const PatternNode* n : pattern.nodes()) {
    if (n->index == node) return n->join_tag.empty() ? -1 : slot;
    if (!n->join_tag.empty()) ++slot;
  }
  return -1;
}

/// A value join resolved to join slots: pattern `self` is the later side
/// and `other` <= `self` the earlier one.
struct BoundJoin {
  size_t self;
  int self_slot;
  size_t other;
  int other_slot;
};

}  // namespace

size_t QueryResult::ContributingDocuments() const {
  std::set<std::string> uris;
  for (const auto& row : row_uris) uris.insert(row.begin(), row.end());
  return uris.size();
}

uint64_t QueryResult::SizeBytes() const {
  uint64_t total = 0;
  for (const auto& row : rows) {
    total += 16;  // row framing
    for (const auto& col : row) total += col.size() + 12;
  }
  return total;
}

std::string QueryResult::ToXml() const {
  std::string out = "<results>";
  for (const auto& row : rows) {
    out += "<row>";
    for (size_t c = 0; c < row.size(); ++c) {
      out += "<col>";
      // `cont` columns on elements already hold XML; the rest is text.
      if (c < xml_columns.size() && xml_columns[c]) {
        out += row[c];
      } else {
        xml::AppendEscaped(row[c], &out);
      }
      out += "</col>";
    }
    out += "</row>";
  }
  out += "</results>";
  return out;
}

Evaluator::WorkStats& Evaluator::ThreadStats() {
  thread_local WorkStats stats;
  return stats;
}

bool& Evaluator::ThreadStatsPending() {
  thread_local bool pending = false;
  return pending;
}

Evaluator::WorkStats Evaluator::ConsumeWorkStats() {
  WorkStats out = ThreadStats();
  ThreadStats() = WorkStats();
  ThreadStatsPending() = false;
  return out;
}

bool Evaluator::HasPendingWorkStats() { return ThreadStatsPending(); }

std::vector<PatternMatch> Evaluator::MatchPattern(const TreePattern& pattern,
                                                  const xml::Document& doc) {
  ThreadStats().doc_bytes_scanned += doc.size_bytes();
  ThreadStatsPending() = true;
  std::vector<PatternMatch> matches;
  PatternMatcher matcher(pattern);
  if (matcher.Reset(doc)) {
    matcher.ForEachEmbedding([&] {
      PatternMatch& match = matches.emplace_back();
      match.uri = doc.uri();
      matcher.AppendOutputs(&match.outputs);
      matcher.AppendJoins(&match.join_values);
    });
  }
  ThreadStats().embeddings_found += matches.size();
  return matches;
}

bool Evaluator::Matches(const TreePattern& pattern,
                        const xml::Document& doc) {
  ThreadStats().doc_bytes_scanned += doc.size_bytes();
  ThreadStatsPending() = true;
  PatternMatcher matcher(pattern);
  return matcher.Reset(doc);
}

QueryResult Evaluator::Evaluate(const Query& query,
                                const std::vector<const xml::Document*>& docs,
                                common::ThreadPool* pool) {
  const auto& patterns = query.patterns();
  QueryResult result;
  // Step 1: evaluate each tree pattern individually over every document,
  // split into contiguous chunks of `docs` that run on the pool beside
  // this thread.
  const size_t num_chunks = FanOutChunks(docs.size(), pool);
  std::vector<Chunk> chunks(num_chunks);
  auto match_chunk = [&](size_t c) {
    const size_t begin = docs.size() * c / num_chunks;
    const size_t end = docs.size() * (c + 1) / num_chunks;
    chunks[c] = MatchChunk(
        patterns, std::span(docs).subspan(begin, end - begin));
  };
  if (num_chunks == 1) {
    match_chunk(0);
  } else {
    pool->ParallelFor(num_chunks, match_chunk);
  }
  for (const Chunk& chunk : chunks) {
    ThreadStats().doc_bytes_scanned += chunk.doc_bytes_scanned;
    ThreadStats().embeddings_found += chunk.embeddings_found;
  }
  const std::vector<PatternRelation> relations = MergeChunks(&chunks);
  for (const TreePattern& pattern : patterns) {
    for (const PatternNode* node : pattern.output_nodes()) {
      result.xml_columns.push_back(node->want_cont && !node->is_attribute);
    }
  }

  // Resolve each value join to join slots and file it under its later
  // pattern: it can be checked as soon as that pattern is bound.
  std::vector<std::vector<BoundJoin>> joins_at(patterns.size());
  for (const ValueJoin& join : query.joins()) {
    const auto left = static_cast<size_t>(join.left_pattern);
    const auto right = static_cast<size_t>(join.right_pattern);
    BoundJoin bound{left, JoinSlot(patterns[left], join.left_node), right,
                    JoinSlot(patterns[right], join.right_node)};
    if (bound.self_slot < 0 || bound.other_slot < 0) continue;  // untagged
    if (bound.self < bound.other) {
      std::swap(bound.self, bound.other);
      std::swap(bound.self_slot, bound.other_slot);
    }
    joins_at[bound.self].push_back(bound);
  }

  // Step 2: combine the per-pattern relations with the value joins.  A
  // pattern joined to an earlier one is reached through a hash index on
  // its first such join: buckets of its matches keyed by join value,
  // each bucket in match order (a chain through `next`).  The bound row
  // probes its bucket and the pattern's other joins filter, so rows come
  // out in the order a nested loop over all matches would give.
  constexpr uint32_t kEnd = UINT32_MAX;
  struct HashIndex {
    const BoundJoin* key = nullptr;
    std::unordered_map<std::string_view, uint32_t> head;
    std::vector<uint32_t> next;
  };
  std::vector<HashIndex> index(patterns.size());
  for (size_t p = 1; p < patterns.size(); ++p) {
    const auto it = std::find_if(
        joins_at[p].begin(), joins_at[p].end(),
        [p](const BoundJoin& join) { return join.other < p; });
    if (it == joins_at[p].end()) continue;
    HashIndex& hash = index[p];
    hash.key = &*it;
    const auto n = static_cast<uint32_t>(relations[p].docs.size());
    hash.head.reserve(n);
    hash.next.assign(n, kEnd);
    for (uint32_t m = n; m-- > 0;) {
      const auto [head, added] =
          hash.head.try_emplace(relations[p].Join(m, it->self_slot), m);
      if (!added) {
        hash.next[m] = head->second;
        head->second = m;
      }
    }
  }

  std::vector<uint32_t> current(patterns.size(), 0);
  auto combine = [&](auto& self, size_t p) -> void {
    if (p == patterns.size()) {
      std::vector<std::string>& row = result.rows.emplace_back();
      std::vector<std::string>& uris = result.row_uris.emplace_back();
      row.reserve(result.xml_columns.size());
      uris.reserve(patterns.size());
      for (size_t q = 0; q < patterns.size(); ++q) {
        const PatternRelation& rel = relations[q];
        for (size_t c = 0; c < rel.width; ++c) {
          row.emplace_back(rel.Output(current[q], c));
        }
        uris.push_back(rel.docs[current[q]]->uri());
      }
      return;
    }
    auto bind = [&](uint32_t m) {
      current[p] = m;
      for (const BoundJoin& join : joins_at[p]) {
        if (&join == index[p].key) continue;  // the bucket already agrees
        if (relations[p].Join(m, join.self_slot) !=
            relations[join.other].Join(current[join.other],
                                       join.other_slot)) {
          return;
        }
      }
      self(self, p + 1);
    };
    const HashIndex& hash = index[p];
    if (hash.key == nullptr) {
      const auto n = static_cast<uint32_t>(relations[p].docs.size());
      for (uint32_t m = 0; m < n; ++m) bind(m);
      return;
    }
    const auto bucket = hash.head.find(relations[hash.key->other].Join(
        current[hash.key->other], hash.key->other_slot));
    if (bucket == hash.head.end()) return;
    for (uint32_t m = bucket->second; m != kEnd; m = hash.next[m]) bind(m);
  };
  if (!patterns.empty()) combine(combine, 0);

  ThreadStats().result_bytes += result.SizeBytes();
  ThreadStatsPending() = true;
  return result;
}

}  // namespace webdex::query
