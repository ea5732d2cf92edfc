#include "engine/query_planner.h"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "index/lookup_paths.h"

namespace webdex::engine {

namespace {

std::string Usd(double usd) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "$%.8f", usd);
  return buf;
}

}  // namespace

const char* PlannerForceName(PlannerForce force) {
  switch (force) {
    case PlannerForce::kAuto:
      return "auto";
    case PlannerForce::kLup:
      return "force-lup";
    case PlannerForce::kLui:
      return "force-lui";
    case PlannerForce::kOff:
      return "off";
  }
  return "?";
}

double PhysicalPlan::EstimatedUsd() const {
  double usd = 0;
  for (const auto& pattern : patterns) {
    if (pattern.chosen >= 0) usd += pattern.chosen_path().estimate.usd;
  }
  return usd;
}

double PhysicalPlan::EstimatedRequests() const {
  double requests = 0;
  for (const auto& pattern : patterns) {
    if (pattern.chosen >= 0) requests += pattern.chosen_path().estimate.requests();
  }
  return requests;
}

std::string PhysicalPlan::ChosenDescription() const {
  std::string description;
  for (const auto& pattern : patterns) {
    if (!description.empty()) description += "+";
    description += pattern.chosen >= 0 ? pattern.chosen_path().name() : "?";
  }
  return description;
}

std::string PhysicalPlan::ToString() const {
  std::ostringstream out;
  out << "physical: strategy " << strategy << ", planner "
      << PlannerForceName(force);
  if (planner_fallbacks > 0) {
    out << ", " << planner_fallbacks << " fallback(s) to scan";
  }
  out << "\n";
  for (const auto& pattern : patterns) {
    out << "  pattern " << pattern.pattern + 1 << ": chose "
        << (pattern.chosen >= 0 ? pattern.chosen_path().name() : "?")
        << "\n";
    for (size_t i = 0; i < pattern.paths.size(); ++i) {
      const PlannedPath& candidate = pattern.paths[i];
      const cost::PathEstimate& est = candidate.estimate;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "    %-10s est %s  keys %.0f  index-req %.0f  docs %.0f"
                    "  requests %.0f",
                    candidate.name(), Usd(est.usd).c_str(),
                    est.index_keys, est.index_requests, est.docs,
                    est.requests());
      out << line;
      if (static_cast<int>(i) == pattern.chosen) {
        out << "  [chosen]";
      } else if (!candidate.note.empty()) {
        out << "  (" << candidate.note << ")";
      }
      out << "\n";
    }
  }
  out << "  estimated total: " << Usd(EstimatedUsd()) << ", "
      << EstimatedRequests() << " requests\n";
  return out.str();
}

std::vector<PlannedPath> QueryPlanner::Candidates() const {
  std::vector<PlannedPath> candidates;
  if (!context_.use_index) return candidates;
  auto add = [&](const char* name, index::StrategyKind kind,
                 std::vector<std::string> tables) {
    candidates.emplace_back().lookup.emplace(name, kind, std::move(tables));
  };
  const index::StrategyKind strategy = context_.strategy;
  if (strategy != index::StrategyKind::k2LUPI ||
      context_.force == PlannerForce::kOff) {
    // The canonical path: the strategy's own look-up over all its tables
    // (for 2LUPI the Figure 5 semijoin over both).
    add(index::StrategyKindName(strategy), strategy,
        index::StrategyTableNames(strategy));
    return candidates;
  }
  // Both materialized 2LUPI tables are first-class alternatives; the cost
  // model decides per pattern which one runs (the other is never billed).
  const std::vector<index::TableLayout>& layout =
      index::StrategyLayout(strategy);
  add("2LUPI/lup", index::StrategyKind::kLUP, {layout[0].table});
  add("2LUPI/lui", index::StrategyKind::kLUI, {layout[1].table});
  if (context_.force == PlannerForce::kLup) {
    candidates[1].viable = false;
    candidates[1].note = "disabled by force-lup";
  } else if (context_.force == PlannerForce::kLui) {
    candidates[0].viable = false;
    candidates[0].note = "disabled by force-lui";
  }
  return candidates;
}

PhysicalPlan QueryPlanner::Plan(const query::LogicalPlan& logical,
                                const cost::CostModel& model,
                                cloud::Micros now) const {
  PhysicalPlan plan;
  plan.strategy = index::StrategyKindName(context_.strategy);
  plan.force = context_.force;
  const cost::PathEstimate scan_estimate = cost::EstimateScanPath(
      model, MakeFetchShape(context_.stats,
                            static_cast<double>(context_.stats.documents)));
  const auto& patterns = logical.query().patterns();
  for (size_t p = 0; p < patterns.size(); ++p) {
    PatternPlan pattern_plan;
    pattern_plan.pattern = static_cast<int>(p);
    if (context_.use_index) {
      pattern_plan.twig = index::BuildKeyTwig(
          patterns[p], context_.options.include_words);
      const index::PathSummary* summary = context_.stats.summary;
      if (summary != nullptr && summary->documents() > 0) {
        pattern_plan.profile = summary->Profile(pattern_plan.twig);
      }
    }
    pattern_plan.paths = Candidates();
    const bool had_lookup_candidates = !pattern_plan.paths.empty();

    // Breaker health gates viability: a look-up against a browned-out
    // table would only burn retries before falling back anyway.  Breakers
    // track *physical* tables, so a sharded deployment checks every
    // shard backing each of the path's logical tables — one browned-out
    // shard sinks the whole fan-out.
    for (PlannedPath& candidate : pattern_plan.paths) {
      if (!candidate.viable || context_.breaker == nullptr) continue;
      for (const std::string& logical : candidate.lookup->tables()) {
        const std::vector<std::string> physical =
            context_.stats.deployment != nullptr
                ? context_.stats.deployment->PhysicalTables(logical)
                : std::vector<std::string>{logical};
        for (const std::string& table : physical) {
          if (!context_.breaker->WouldAllow(table, now)) {
            candidate.viable = false;
            candidate.note = "breaker open on " + table;
            break;
          }
        }
        if (!candidate.viable) break;
      }
    }

    // The scan path is always present and always viable — the degraded
    // fallback of docs/FAULTS.md, now just the path of last resort.  It
    // fetches every document and reads no index.
    pattern_plan.paths.emplace_back();

    for (PlannedPath& candidate : pattern_plan.paths) {
      candidate.estimate =
          candidate.lookup
              ? candidate.lookup->EstimateCost(
                    model, *context_.store, context_.stats,
                    pattern_plan.twig, pattern_plan.profile)
              : scan_estimate;
    }

    // Cheapest viable look-up wins; the scan is chosen only when no
    // look-up is healthy (Table 5 semantics: a healthy index is always
    // preferred over re-shipping the corpus).
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < pattern_plan.paths.size(); ++i) {
      PlannedPath& candidate = pattern_plan.paths[i];
      if (!candidate.viable) continue;
      if (candidate.estimate.usd < best) {
        best = candidate.estimate.usd;
        pattern_plan.chosen = static_cast<int>(i);
      }
    }
    if (pattern_plan.chosen < 0) {
      pattern_plan.chosen = static_cast<int>(pattern_plan.paths.size()) - 1;
      if (had_lookup_candidates) ++plan.planner_fallbacks;
    } else {
      pattern_plan.paths.back().note = "fallback only";
    }
    for (size_t i = 0; i + 1 < pattern_plan.paths.size(); ++i) {
      PlannedPath& candidate = pattern_plan.paths[i];
      if (static_cast<int>(i) != pattern_plan.chosen && candidate.viable &&
          candidate.note.empty()) {
        candidate.note = "rejected: costlier";
      }
    }
    plan.patterns.push_back(std::move(pattern_plan));
  }
  return plan;
}

Result<std::vector<std::string>> QueryPlanner::Execute(
    const PatternPlan& pattern_plan, cloud::SimAgent& agent,
    index::LookupStats* stats) const {
  const LookupAccessPath& path = *pattern_plan.chosen_path().lookup;
  return index::LookupByKind(path.kind(), agent, *context_.store,
                             path.tables(), pattern_plan.twig,
                             context_.options, stats,
                             context_.stats.generations.get());
}

}  // namespace webdex::engine
