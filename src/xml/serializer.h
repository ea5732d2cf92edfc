#ifndef WEBDEX_XML_SERIALIZER_H_
#define WEBDEX_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "xml/dom.h"

namespace webdex::xml {

struct SerializerOptions {
  /// Pretty-print with two-space indentation; compact otherwise.
  bool indent = false;
};

/// Serializes the subtree rooted at `node` of `doc` back to XML text.
/// Entities are re-escaped, so Parse(Serialize(t)) == t (modulo
/// whitespace).  This implements the paper's `cont` result granularity:
/// "the full XML subtree rooted at this node".
std::string Serialize(const Document& doc, const Node& node,
                      const SerializerOptions& options = {});

/// Serializes a whole document (adds the XML declaration).
std::string Serialize(const Document& doc,
                      const SerializerOptions& options = {});

/// Appends `text` to `*out` with &, <, >, ", ' escaped, for use in text
/// or attribute content.
void AppendEscaped(std::string_view text, std::string* out);

}  // namespace webdex::xml

#endif  // WEBDEX_XML_SERIALIZER_H_
