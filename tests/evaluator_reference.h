#ifndef WEBDEX_TESTS_EVALUATOR_REFERENCE_H_
#define WEBDEX_TESTS_EVALUATOR_REFERENCE_H_

// A test oracle for query::Evaluator: the recursive pattern matcher and
// nested-loop value join the evaluator used before it matched over label
// streams.  It is slow and allocation-heavy on purpose: it enumerates
// embeddings the obvious way, so the differential suite can compare the
// production evaluator's rows, row order and work counters against it.

#include <functional>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "query/tree_pattern.h"
#include "xml/dom.h"
#include "xml/serializer.h"

namespace webdex::query::reference {

/// The counters Evaluator::WorkStats reports, accumulated per call here.
using WorkStats = Evaluator::WorkStats;

/// A partial embedding of one pattern subtree: fixed-size slot vectors
/// (one slot per annotated / join-tagged node of the whole pattern),
/// filled only for the subtree already matched.  Slots of disjoint
/// subtrees are disjoint, so merging is plain copying.
struct Partial {
  std::vector<std::string> outputs;
  std::vector<std::string> joins;
};

class PatternMatcher {
 public:
  PatternMatcher(const TreePattern& pattern, const xml::Document& doc)
      : pattern_(pattern), doc_(doc) {
    output_slot_.assign(static_cast<size_t>(pattern.size()), -1);
    join_slot_.assign(static_cast<size_t>(pattern.size()), -1);
    int out_slots = 0;
    int join_slots = 0;
    for (const PatternNode* node : pattern.nodes()) {
      if (node->HasOutput()) {
        output_slot_[static_cast<size_t>(node->index)] = out_slots++;
      }
      if (!node->join_tag.empty()) {
        join_slot_[static_cast<size_t>(node->index)] = join_slots++;
      }
    }
    num_output_slots_ = out_slots;
    num_join_slots_ = join_slots;
  }

  std::vector<PatternMatch> AllMatches(bool first_only) {
    std::vector<Partial> partials;
    const PatternNode& proot = pattern_.root();
    // The pattern root may match any document node (its incoming axis is
    // descendant-from-document-root); with an explicit child axis it must
    // match the document element itself.
    if (proot.axis == Axis::kChild) {
      MatchAt(proot, doc_.root(), &partials, first_only);
    } else {
      MatchAnywhere(proot, doc_.root(), &partials, first_only);
    }
    std::vector<PatternMatch> matches;
    matches.reserve(partials.size());
    for (auto& partial : partials) {
      PatternMatch match;
      match.uri = doc_.uri();
      match.outputs = std::move(partial.outputs);
      match.join_values = std::move(partial.joins);
      matches.push_back(std::move(match));
    }
    return matches;
  }

 private:
  bool NodeMatches(const PatternNode& pnode, const xml::Node& dnode) const {
    if (pnode.is_attribute) {
      if (!dnode.is_attribute()) return false;
    } else {
      if (!dnode.is_element()) return false;
    }
    if (pnode.label != doc_.label(dnode)) return false;
    if (pnode.predicate.kind != PredicateKind::kNone) {
      // Reuse one buffer across the scan's many predicate evaluations —
      // StringValue() would allocate a fresh string per visited node.
      thread_local std::string value;
      value.clear();
      doc_.AppendStringValue(dnode, &value);
      if (!pnode.predicate.Matches(value)) return false;
    }
    return true;
  }

  // Tries to match `pnode` at every node of the subtree rooted at `dnode`
  // (including dnode itself).
  void MatchAnywhere(const PatternNode& pnode, const xml::Node& dnode,
                     std::vector<Partial>* out, bool first_only) {
    MatchAt(pnode, dnode, out, first_only);
    if (first_only && !out->empty()) return;
    for (const xml::Node& child : doc_.children(dnode)) {
      MatchAnywhere(pnode, child, out, first_only);
      if (first_only && !out->empty()) return;
    }
  }

  // Appends to `out` every embedding that maps `pnode` exactly to `dnode`.
  void MatchAt(const PatternNode& pnode, const xml::Node& dnode,
               std::vector<Partial>* out, bool first_only) {
    if (!NodeMatches(pnode, dnode)) return;

    // Per-child lists of sub-embeddings.
    std::vector<std::vector<Partial>> child_partials;
    child_partials.reserve(pnode.children.size());
    for (const auto& pchild : pnode.children) {
      std::vector<Partial> candidates;
      if (pchild->axis == Axis::kChild) {
        for (const xml::Node& dchild : doc_.children(dnode)) {
          MatchAt(*pchild, dchild, &candidates, first_only);
          if (first_only && !candidates.empty()) break;
        }
      } else {
        for (const xml::Node& dchild : doc_.children(dnode)) {
          MatchAnywhere(*pchild, dchild, &candidates, first_only);
          if (first_only && !candidates.empty()) break;
        }
      }
      if (candidates.empty()) return;  // conjunctive: all children required
      child_partials.push_back(std::move(candidates));
    }

    // This node's own contribution.
    Partial self;
    self.outputs.assign(static_cast<size_t>(num_output_slots_), {});
    self.joins.assign(static_cast<size_t>(num_join_slots_), {});
    const int oslot = output_slot_[static_cast<size_t>(pnode.index)];
    if (oslot >= 0) {
      if (pnode.want_cont) {
        self.outputs[static_cast<size_t>(oslot)] = xml::Serialize(doc_, dnode);
      } else {
        self.outputs[static_cast<size_t>(oslot)] = doc_.StringValue(dnode);
      }
    }
    const int jslot = join_slot_[static_cast<size_t>(pnode.index)];
    if (jslot >= 0) {
      self.joins[static_cast<size_t>(jslot)] = doc_.StringValue(dnode);
    }

    // Cartesian product over children, merged into `self`.
    std::vector<Partial> combined{std::move(self)};
    for (auto& candidates : child_partials) {
      std::vector<Partial> next;
      next.reserve(combined.size() * candidates.size());
      for (const Partial& base : combined) {
        for (const Partial& cand : candidates) {
          Partial merged = base;
          for (size_t i = 0; i < merged.outputs.size(); ++i) {
            if (!cand.outputs[i].empty()) merged.outputs[i] = cand.outputs[i];
          }
          for (size_t i = 0; i < merged.joins.size(); ++i) {
            if (!cand.joins[i].empty()) merged.joins[i] = cand.joins[i];
          }
          next.push_back(std::move(merged));
          if (first_only) break;
        }
        if (first_only && !next.empty()) break;
      }
      combined = std::move(next);
    }
    for (auto& partial : combined) out->push_back(std::move(partial));
  }

  const TreePattern& pattern_;
  const xml::Document& doc_;
  std::vector<int> output_slot_;
  std::vector<int> join_slot_;
  int num_output_slots_ = 0;
  int num_join_slots_ = 0;
};

inline std::vector<PatternMatch> MatchPattern(const TreePattern& pattern,
                                              const xml::Document& doc,
                                              WorkStats* stats) {
  stats->doc_bytes_scanned += doc.size_bytes();
  PatternMatcher matcher(pattern, doc);
  auto matches = matcher.AllMatches(/*first_only=*/false);
  stats->embeddings_found += matches.size();
  return matches;
}

inline bool Matches(const TreePattern& pattern, const xml::Document& doc,
                    WorkStats* stats) {
  stats->doc_bytes_scanned += doc.size_bytes();
  PatternMatcher matcher(pattern, doc);
  return !matcher.AllMatches(/*first_only=*/true).empty();
}

inline QueryResult Evaluate(const Query& query,
                            const std::vector<const xml::Document*>& docs,
                            WorkStats* stats) {
  // Step 1: evaluate each tree pattern individually over every document.
  std::vector<std::vector<PatternMatch>> per_pattern(query.patterns().size());
  for (size_t p = 0; p < query.patterns().size(); ++p) {
    for (const xml::Document* doc : docs) {
      auto matches = MatchPattern(query.patterns()[p], *doc, stats);
      for (auto& match : matches) {
        per_pattern[p].push_back(std::move(match));
      }
    }
  }

  // Map (pattern, node index) -> join slot for predicate evaluation.
  std::vector<std::vector<int>> join_slot(query.patterns().size());
  for (size_t p = 0; p < query.patterns().size(); ++p) {
    const TreePattern& pattern = query.patterns()[p];
    join_slot[p].assign(static_cast<size_t>(pattern.size()), -1);
    int slot = 0;
    for (const PatternNode* node : pattern.nodes()) {
      if (!node->join_tag.empty()) {
        join_slot[p][static_cast<size_t>(node->index)] = slot++;
      }
    }
  }

  // Step 2: combine the per-pattern relations with the value joins
  // (nested-loop; pattern result sets are small after index pruning).
  QueryResult result;
  std::vector<const PatternMatch*> current(query.patterns().size(), nullptr);
  std::function<void(size_t)> combine = [&](size_t p) {
    if (p == query.patterns().size()) {
      std::vector<std::string> row;
      std::vector<std::string> uris;
      for (const PatternMatch* match : current) {
        row.insert(row.end(), match->outputs.begin(), match->outputs.end());
        uris.push_back(match->uri);
      }
      result.rows.push_back(std::move(row));
      result.row_uris.push_back(std::move(uris));
      return;
    }
    for (const PatternMatch& match : per_pattern[p]) {
      current[p] = &match;
      // Check every join whose two sides are already bound.
      bool ok = true;
      for (const ValueJoin& join : query.joins()) {
        const size_t lp = static_cast<size_t>(join.left_pattern);
        const size_t rp = static_cast<size_t>(join.right_pattern);
        if (lp > p || rp > p) continue;  // a side not bound yet
        const int ls = join_slot[lp][static_cast<size_t>(join.left_node)];
        const int rs = join_slot[rp][static_cast<size_t>(join.right_node)];
        if (ls < 0 || rs < 0) continue;  // join on untagged node: ignore
        if (current[lp]->join_values[static_cast<size_t>(ls)] !=
            current[rp]->join_values[static_cast<size_t>(rs)]) {
          ok = false;
          break;
        }
      }
      if (ok) combine(p + 1);
    }
  };
  if (!query.patterns().empty()) combine(0);

  stats->result_bytes += result.SizeBytes();
  return result;
}

}  // namespace webdex::query::reference

#endif  // WEBDEX_TESTS_EVALUATOR_REFERENCE_H_
