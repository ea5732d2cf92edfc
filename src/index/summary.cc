#include "index/summary.h"

#include <algorithm>
#include <cmath>

#include "index/keys.h"

namespace webdex::index {

void PathSummary::AddDocument(const DocIndex& index) {
  documents_ += 1;
  for (const auto& entry : index.entries()) {
    Bump(&docs_per_key_, entry.key);
    const PathHandle* paths = index.paths(entry);
    for (uint32_t i = 0; i < entry.path_count; ++i) {
      const PathHandle path = paths[i];
      if (path >= docs_per_path_.size()) {
        docs_per_path_.resize(path + 1, 0);
      }
      if (docs_per_path_[path] == 0) paths_.push_back(path);
      docs_per_path_[path] += 1;
    }
  }
}

void PathSummary::GroupByLastKey() const {
  if (grouped_paths_ == paths_.size()) return;
  const PathDict& dict = core_->paths();
  KeyHandle keys = 0;
  for (const PathHandle path : paths_) {
    keys = std::max(keys, dict.LastKey(path) + 1);
  }
  // A counting sort: group_begin_[k + 2] first counts key k's paths,
  // the prefix sum turns group_begin_[k + 1] into key k's begin, and
  // placing each path advances it to key k's end, which is key k + 1's
  // begin.  Each group keeps first-seen order.
  group_begin_.assign(keys + 2, 0);
  for (const PathHandle path : paths_) ++group_begin_[dict.LastKey(path) + 2];
  for (size_t k = 2; k < group_begin_.size(); ++k) {
    group_begin_[k] += group_begin_[k - 1];
  }
  by_last_key_.resize(paths_.size());
  for (const PathHandle path : paths_) {
    by_last_key_[group_begin_[dict.LastKey(path) + 1]++] = path;
  }
  group_begin_.pop_back();
  grouped_paths_ = paths_.size();
}

uint64_t PathSummary::DocsWithKey(const std::string& key) const {
  const KeyHandle handle = core_->keys().Find(key);
  if (handle == kNoHandle) return 0;
  return CountAt(docs_per_key_, handle);
}

uint64_t PathSummary::DocsMatchingPath(const QueryPath& path) const {
  std::vector<KeyHandle> components;
  return DocsMatchingPath(path, &components);
}

uint64_t PathSummary::DocsMatchingPath(
    const QueryPath& path, std::vector<KeyHandle>* components) const {
  GroupByLastKey();
  const KeyHandle last = core_->keys().Find(path.LookupKey());
  if (last == kNoHandle || last + 1 >= group_begin_.size()) return 0;
  const HandleQueryPath resolved = ResolveQueryPath(path, core_->keys());
  if (!resolved.viable) return 0;
  // Distinct data paths are disjoint *path* shapes but one document may
  // carry several; summing their document counts is an upper bound,
  // capped at the corpus size.
  uint64_t total = 0;
  for (uint32_t i = group_begin_[last]; i < group_begin_[last + 1]; ++i) {
    const PathHandle data_path = by_last_key_[i];
    core_->paths().Components(data_path, components);
    if (PathMatches(resolved, *components)) {
      total += docs_per_path_[data_path];
    }
  }
  return std::min(total, documents_);
}

PatternProfile PathSummary::Profile(const KeyTwig& twig) const {
  PatternProfile profile;
  profile.documents = documents_;
  profile.key_docs.reserve(twig.keys.size());
  for (const auto& key : twig.keys) {
    profile.key_docs.push_back(DocsWithKey(key));
  }
  profile.path_docs.reserve(twig.query_paths.size());
  std::vector<KeyHandle> components;
  for (const auto& path : twig.query_paths) {
    profile.path_docs.push_back(DocsMatchingPath(path, &components));
  }
  return profile;
}

uint64_t PatternProfile::LuDocs() const {
  uint64_t estimate = documents;
  for (uint64_t docs : key_docs) estimate = std::min(estimate, docs);
  return estimate;
}

uint64_t PatternProfile::LupDocs() const {
  uint64_t estimate = documents;
  for (uint64_t docs : path_docs) estimate = std::min(estimate, docs);
  return estimate;
}

double PatternProfile::LupFraction() const {
  return documents == 0 ? 0
                        : static_cast<double>(LupDocs()) /
                              static_cast<double>(documents);
}

double PatternProfile::IndependentDocs() const {
  if (documents == 0) return 0;
  double expected = static_cast<double>(documents);
  for (uint64_t docs : path_docs) {
    expected *= static_cast<double>(docs) / static_cast<double>(documents);
  }
  return expected;
}

double PatternProfile::TwigJoinDocs() const {
  if (documents == 0) return 0;
  std::vector<double> fractions;
  fractions.reserve(path_docs.size());
  for (uint64_t docs : path_docs) {
    fractions.push_back(static_cast<double>(docs) /
                        static_cast<double>(documents));
  }
  std::sort(fractions.begin(), fractions.end());
  double expected = static_cast<double>(documents);
  double exponent = 1.0;
  for (double fraction : fractions) {
    expected *= std::pow(fraction, exponent);
    exponent /= 2;
  }
  return expected;
}

StrategyKind PatternProfile::AdvisedLookup() const {
  // A single linear path: LUP path matching is exact.
  if (path_docs.size() < 2) return StrategyKind::kLUP;
  // Section 8.5: LUI wins when every linear branch is common (the LUP
  // pre-filter keeps many documents) yet the branches rarely co-occur
  // (only the structural join prunes them).
  if (LupFraction() > 0.15 &&
      IndependentDocs() < 0.75 * static_cast<double>(LupDocs())) {
    return StrategyKind::kLUI;
  }
  return StrategyKind::kLUP;
}

}  // namespace webdex::index
