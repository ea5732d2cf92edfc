#ifndef WEBDEX_INDEX_KEYS_H_
#define WEBDEX_INDEX_KEYS_H_

#include <string>
#include <string_view>
#include <vector>

namespace webdex::index {

/// The key(n) encoding of paper Section 5.  With e, a, w constant tokens
/// and ‖ concatenation:
///
///   key(n) = e‖label          if n is an XML element
///            a‖name           if n is an XML attribute (name key)
///            a‖name␣value     if n is an XML attribute (valued key)
///            w‖val            if n is a word
///
/// An attribute yields *two* keys — one for its name and one that also
/// carries its value — "these help speed up specific kinds of queries"
/// (point look-ups on @name = value).

inline constexpr char kElementPrefix = 'e';
inline constexpr char kAttributePrefix = 'a';
inline constexpr char kWordPrefix = 'w';

std::string ElementKey(std::string_view label);
std::string AttributeNameKey(std::string_view name);
std::string AttributeValueKey(std::string_view name, std::string_view value);
/// `word` must already be normalized (xml::NormalizeWord).
std::string WordKey(std::string_view word);

/// Renders a key as one component of a stored label path
/// ("/epainting/ename").  '/' and '%' inside keys (possible in attribute
/// values) are percent-escaped so that splitting a stored path on '/'
/// always recovers the original components.
std::string PathComponent(std::string_view key);

/// Appends the escaped component directly to `out` — the hot-path form
/// of PathComponent, free of the intermediate return string.
void AppendPathComponent(std::string* out, std::string_view key);

/// Splits a stored label path into its unescaped key components.
std::vector<std::string> SplitPath(std::string_view path);

/// Allocation-light splitter: components are returned as views into
/// `path` where no unescaping was needed, and into `*scratch` otherwise.
/// `*scratch` is cleared and sized up front so the views stay valid until
/// the next call with the same scratch buffer; `path` must outlive the
/// returned views.  `out` is cleared and reused.
void SplitPathInto(std::string_view path, std::string* scratch,
                   std::vector<std::string_view>* out);

/// Appending form of SplitPathInto for callers keeping many split paths
/// in one flat buffer: clears neither `*scratch` nor `*out`.  `*scratch`
/// must already have capacity for every byte it will ever hold
/// (unescaping only shrinks, so the paths' total size suffices), or
/// earlier views would dangle.
void AppendSplitPath(std::string_view path, std::string* scratch,
                     std::vector<std::string_view>* out);

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_KEYS_H_
