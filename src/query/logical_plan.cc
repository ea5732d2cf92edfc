#include "query/logical_plan.h"

#include "common/strings.h"

namespace webdex::query {

LogicalPlan::LogicalPlan(Query query) : query_(std::move(query)) {
  patterns_.reserve(query_.patterns().size());
  for (size_t i = 0; i < query_.patterns().size(); ++i) {
    const TreePattern& pattern = query_.patterns()[i];
    PatternFacts facts;
    facts.pattern = static_cast<int>(i);
    facts.nodes = pattern.size();
    facts.outputs = static_cast<int>(pattern.output_nodes().size());
    for (const PatternNode* node : pattern.nodes()) {
      // One root-to-leaf branch per leaf.
      if (node->children.empty()) facts.branches += 1;
      if (node->predicate.kind != PredicateKind::kNone) {
        facts.predicates += 1;
        if (node->predicate.kind == PredicateKind::kRange) {
          facts.has_range = true;
        }
      }
    }
    for (const ValueJoin& join : query_.joins()) {
      if (join.left_pattern == facts.pattern ||
          join.right_pattern == facts.pattern) {
        facts.joined = true;
        break;
      }
    }
    patterns_.push_back(facts);
  }
}

LogicalPlan LogicalPlan::Build(Query query) {
  return LogicalPlan(std::move(query));
}

std::string LogicalPlan::ToString() const {
  std::string out = StrFormat("logical: %zu pattern%s, %zu value join%s\n",
                              query_.patterns().size(),
                              query_.patterns().size() == 1 ? "" : "s",
                              query_.joins().size(),
                              query_.joins().size() == 1 ? "" : "s");
  for (const PatternFacts& facts : patterns_) {
    out += StrFormat(
        "  pattern %d: %s\n"
        "    nodes=%d branches=%d outputs=%d predicates=%d%s%s\n",
        facts.pattern + 1,
        query_.patterns()[facts.pattern].ToString().c_str(), facts.nodes,
        facts.branches, facts.outputs, facts.predicates,
        facts.has_range ? " range" : "", facts.joined ? " joined" : "");
  }
  return out;
}

}  // namespace webdex::query
