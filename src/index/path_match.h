#ifndef WEBDEX_INDEX_PATH_MATCH_H_
#define WEBDEX_INDEX_PATH_MATCH_H_

#include <string_view>
#include <vector>

#include "index/intern.h"
#include "index/key_twig.h"

namespace webdex::index {

/// True if a stored data path, given as its unescaped components (what
/// index::SplitPathInto makes of e.g. "/esite/eitem/ename"), matches the
/// query path.  Semantics: the first step anchors at the document root
/// when its axis is kChild, anywhere otherwise; child steps must be
/// consecutive; the last query step must be the *last* data component
/// (data paths for key k always end with k).  The look-up hot path keeps
/// many pre-split paths in one flat component buffer
/// (the LUP look-up's per-value cache, index/lookup_paths.cc) and tests
/// each against every query path.
bool PathMatches(const QueryPath& query,
                 const std::string_view* data_components, size_t count);

/// A query path with step keys pre-resolved against a StringInterner, so
/// matching interned data paths compares integers.  A step key the
/// interner has never seen makes the whole path non-viable: no stored
/// data path can contain it.
struct HandleQueryPath {
  struct Step {
    TwigAxis axis;
    KeyHandle key;
  };
  std::vector<Step> steps;
  bool viable = false;
};

HandleQueryPath ResolveQueryPath(const QueryPath& query,
                                 const StringInterner& interner);

/// Matches against a data path's root-to-node component handles
/// (PathDict::Components order).
bool PathMatches(const HandleQueryPath& query,
                 const std::vector<KeyHandle>& data_components);

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_PATH_MATCH_H_
