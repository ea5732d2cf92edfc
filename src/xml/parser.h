#ifndef WEBDEX_XML_PARSER_H_
#define WEBDEX_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "xml/dom.h"

namespace webdex::xml {

struct ParserOptions {
  /// Drop text nodes that are pure whitespace (indentation); the paper's
  /// corpus semantics never depend on them.
  bool skip_whitespace_text = true;
  /// Maximum element nesting depth.  The parser and the serializer
  /// recurse per level, so unbounded depth is a stack-bomb vector;
  /// deeper documents are rejected with Corruption.
  int max_depth = 512;
};

/// Parses an XML document from text.
///
/// A from-scratch, dependency-free parser covering the features the
/// warehouse's documents actually use: elements, attributes, character
/// data, CDATA sections, comments, processing instructions, the XML
/// declaration, and the five predefined entities plus numeric character
/// references.  Not supported (rejected, never silently mis-parsed):
/// DOCTYPE with internal subsets defining entities.
///
/// On success the returned document has structural (pre, post, depth)
/// identifiers already assigned.  The parser appends nodes and values
/// straight into this thread's DocumentWriter, so a steady-state parse
/// allocates only the finished document's arrays.
Result<Document> ParseDocument(std::string uri, std::string_view text,
                               const ParserOptions& options = {});

}  // namespace webdex::xml

#endif  // WEBDEX_XML_PARSER_H_
