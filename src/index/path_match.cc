#include "index/path_match.h"

namespace webdex::index {

namespace {

// Recursive match of query steps [qi..) against data components [dj..),
// where query step qi must map to some data component >= dj subject to
// its axis, and the final query step must map to the final component.
// Templated over the step and component types: string keys against
// views, interned handles against handles.
template <typename Step, typename Component>
bool MatchFrom(const std::vector<Step>& steps, size_t qi,
               const Component* data, size_t size, size_t dj) {
  if (qi == steps.size()) {
    // All query steps consumed; require the last one to have matched the
    // last data component (checked by the caller's alignment below).
    return dj == size;
  }
  const Step& step = steps[qi];
  if (step.axis == TwigAxis::kChild) {
    if (dj >= size || data[dj] != step.key) return false;
    return MatchFrom(steps, qi + 1, data, size, dj + 1);
  }
  // Descendant axis: the step may match any component at position >= dj.
  for (size_t k = dj; k < size; ++k) {
    if (data[k] == step.key && MatchFrom(steps, qi + 1, data, size, k + 1)) {
      return true;
    }
  }
  return false;
}

template <typename Step, typename Component>
bool MatchSteps(const std::vector<Step>& steps, const Component* data,
                size_t size) {
  if (steps.empty() || size == 0) return false;
  // Data paths always end with the looked-up key: quick reject otherwise.
  if (data[size - 1] != steps.back().key) return false;
  return MatchFrom(steps, 0, data, size, 0);
}

}  // namespace

bool PathMatches(const QueryPath& query,
                 const std::string_view* data_components, size_t count) {
  return MatchSteps(query.steps, data_components, count);
}

HandleQueryPath ResolveQueryPath(const QueryPath& query,
                                 const StringInterner& interner) {
  HandleQueryPath resolved;
  resolved.viable = !query.steps.empty();
  resolved.steps.reserve(query.steps.size());
  for (const QueryPathStep& step : query.steps) {
    const KeyHandle handle = interner.Find(step.key);
    if (handle == kNoHandle) resolved.viable = false;
    resolved.steps.push_back({step.axis, handle});
  }
  return resolved;
}

bool PathMatches(const HandleQueryPath& query,
                 const std::vector<KeyHandle>& data_components) {
  return query.viable && MatchSteps(query.steps, data_components.data(),
                                    data_components.size());
}

}  // namespace webdex::index
