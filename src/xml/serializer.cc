#include "xml/serializer.h"

namespace webdex::xml {
namespace {

// name="value", as in a start tag.
void AppendAttribute(const Document& doc, const Node& attribute,
                     std::string* out) {
  out->append(doc.label(attribute));
  out->append("=\"");
  AppendEscaped(doc.value(attribute), out);
  out->push_back('"');
}

void SerializeElement(const Document& doc, const Node& element,
                      const SerializerOptions& options, int depth,
                      std::string* out) {
  const size_t pad = options.indent ? static_cast<size_t>(depth) * 2 : 0;
  if (options.indent && depth > 0) out->push_back('\n');
  out->append(pad, ' ');
  out->push_back('<');
  out->append(doc.label(element));
  bool has_content = false;
  for (const Node& child : doc.children(element)) {
    if (child.is_attribute()) {
      out->push_back(' ');
      AppendAttribute(doc, child, out);
    } else {
      has_content = true;
    }
  }
  if (!has_content) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  bool wrote_child_element = false;
  for (const Node& child : doc.children(element)) {
    if (child.is_text()) {
      AppendEscaped(doc.value(child), out);
    } else if (child.is_element()) {
      SerializeElement(doc, child, options, depth + 1, out);
      wrote_child_element = true;
    }
  }
  if (options.indent && wrote_child_element) {
    out->push_back('\n');
    out->append(pad, ' ');
  }
  out->append("</");
  out->append(doc.label(element));
  out->push_back('>');
}

void SerializeNode(const Document& doc, const Node& node,
                   const SerializerOptions& options, std::string* out) {
  if (node.is_text()) {
    AppendEscaped(doc.value(node), out);
  } else if (node.is_attribute()) {
    // Attributes are emitted by their parent element; a bare attribute
    // serializes as name="value" (used when an attribute itself is the
    // query result).
    AppendAttribute(doc, node, out);
  } else {
    SerializeElement(doc, node, options, 0, out);
  }
}

}  // namespace

void AppendEscaped(std::string_view text, std::string* out) {
  // Copies each run between special characters in one append.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    std::string_view entity;
    switch (text[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      case '\'':
        entity = "&apos;";
        break;
      default:
        continue;
    }
    out->append(text.substr(run, i - run));
    out->append(entity);
    run = i + 1;
  }
  out->append(text.substr(run));
}

std::string Serialize(const Document& doc, const Node& node,
                      const SerializerOptions& options) {
  std::string out;
  SerializeNode(doc, node, options, &out);
  return out;
}

std::string Serialize(const Document& doc, const SerializerOptions& options) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  if (options.indent) out.push_back('\n');
  SerializeNode(doc, doc.root(), options, &out);
  return out;
}

}  // namespace webdex::xml
