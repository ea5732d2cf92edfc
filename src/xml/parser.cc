#include "xml/parser.h"

#include <cctype>
#include <cstdint>

#include "common/strings.h"

namespace webdex::xml {
namespace {

class Parser {
 public:
  Parser(std::string_view text, const ParserOptions& options,
         DocumentWriter* writer)
      : text_(text), options_(options), writer_(writer) {}

  Status Parse() {
    SkipProlog();
    WEBDEX_RETURN_IF_ERROR(ParseElement());
    SkipMisc();
    if (pos_ != text_.size()) {
      return Error("trailing content after document element");
    }
    return Status::OK();
  }

 private:
  Status Error(std::string_view message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return Status::Corruption(
        StrFormat("XML parse error at line %zu: %.*s", line,
                  static_cast<int>(message.size()), message.data()));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Consume(char c) {
    if (!AtEnd() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }
  void SkipSpace() {
    while (!AtEnd() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    const size_t start = pos_;
    ++pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  // The code point of a character reference body ("65" or "x41"), or -1
  // unless it is all decimal digits, or x and all hex digits, and names
  // an XML Char: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
  // [#x10000-#x10FFFF].
  static long CharacterReference(std::string_view body) {
    const bool hex = !body.empty() && body[0] == 'x';
    const std::string_view digits = body.substr(hex ? 1 : 0);
    if (digits.empty()) return -1;
    long code = 0;
    for (const char d : digits) {
      const char lower = static_cast<char>(d | 0x20);
      long value = 0;
      if (d >= '0' && d <= '9') {
        value = d - '0';
      } else if (hex && lower >= 'a' && lower <= 'f') {
        value = lower - 'a' + 10;
      } else {
        return -1;
      }
      code = code * (hex ? 16 : 10) + value;
      if (code > 0x10FFFF) return -1;
    }
    const bool is_char = code == 0x9 || code == 0xA || code == 0xD ||
                         (code >= 0x20 && code <= 0xD7FF) ||
                         (code >= 0xE000 && code <= 0xFFFD) ||
                         code >= 0x10000;
    return is_char ? code : -1;
  }

  // Decodes &amp; &lt; &gt; &apos; &quot; and &#...; references in-place
  // while accumulating into `out`.
  Status AppendDecoded(std::string_view raw, std::string* out) {
    size_t i = 0;
    while (i < raw.size()) {
      const char c = raw[i];
      if (c != '&') {
        out->push_back(c);
        ++i;
        continue;
      }
      const size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      const std::string_view name = raw.substr(i + 1, semi - i - 1);
      if (name == "amp") {
        out->push_back('&');
      } else if (name == "lt") {
        out->push_back('<');
      } else if (name == "gt") {
        out->push_back('>');
      } else if (name == "apos") {
        out->push_back('\'');
      } else if (name == "quot") {
        out->push_back('"');
      } else if (!name.empty() && name[0] == '#') {
        const long code = CharacterReference(name.substr(1));
        if (code < 0) return Error("bad character reference");
        // Encode as UTF-8.
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xF0 | (code >> 18)));
          out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
      } else {
        return Error("unknown entity reference");
      }
      i = semi + 1;
    }
    return Status::OK();
  }

  void SkipProlog() {
    SkipSpace();
    // XML declaration.
    if (ConsumeLiteral("<?xml")) {
      const size_t end = text_.find("?>", pos_);
      pos_ = end == std::string_view::npos ? text_.size() : end + 2;
    }
    SkipMisc();
  }

  // Skips whitespace, comments and processing instructions between
  // markup.  Returns false on malformed comment (flagged later).
  void SkipMisc() {
    for (;;) {
      SkipSpace();
      if (ConsumeLiteral("<!--")) {
        const size_t end = text_.find("-->", pos_);
        pos_ = end == std::string_view::npos ? text_.size() : end + 3;
        continue;
      }
      if (text_.substr(pos_, 2) == "<?") {
        const size_t end = text_.find("?>", pos_);
        pos_ = end == std::string_view::npos ? text_.size() : end + 2;
        continue;
      }
      if (ConsumeLiteral("<!DOCTYPE")) {
        // Skip to the matching '>' (no internal subset support; '[' fails).
        while (!AtEnd() && Peek() != '>' && Peek() != '[') ++pos_;
        if (!AtEnd() && Peek() == '[') {
          // Internal subsets may define entities we will not expand;
          // refuse rather than mis-parse.  Recorded as position for error.
          doctype_subset_ = true;
          return;
        }
        Consume('>');
        continue;
      }
      return;
    }
  }

  // Parses one element into the writer: its node, then its attributes
  // and content in document order.
  Status ParseElement() {
    if (doctype_subset_) {
      return Error("DOCTYPE internal subsets are not supported");
    }
    if (++depth_ > options_.max_depth) {
      return Error("element nesting exceeds the configured max_depth");
    }
    const DepthGuard guard(&depth_);
    if (!Consume('<')) return Error("expected '<'");
    WEBDEX_ASSIGN_OR_RETURN(const std::string_view name, ParseName());
    writer_->OpenElement(name);
    std::string* const text = writer_->text();

    // Attributes.
    for (;;) {
      SkipSpace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Consume('>')) break;
      if (ConsumeLiteral("/>")) {  // empty element
        writer_->CloseElement();
        return Status::OK();
      }
      WEBDEX_ASSIGN_OR_RETURN(const std::string_view attr_name, ParseName());
      SkipSpace();
      if (!Consume('=')) return Error("expected '=' in attribute");
      SkipSpace();
      char quote = 0;
      if (Consume('"')) {
        quote = '"';
      } else if (Consume('\'')) {
        quote = '\'';
      } else {
        return Error("expected quoted attribute value");
      }
      const size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      const size_t value_begin = text->size();
      WEBDEX_RETURN_IF_ERROR(
          AppendDecoded(text_.substr(start, pos_ - start), text));
      ++pos_;  // closing quote
      writer_->AddAttribute(attr_name, value_begin);
    }

    // Content.  Character data accumulates in the writer's text buffer
    // from `pending` on, across comments, PIs and CDATA sections, until
    // an element starts or ends; whitespace-only runs are then dropped.
    size_t pending = text->size();
    auto flush_text = [&]() {
      if (text->size() == pending) return;
      if (!options_.skip_whitespace_text ||
          !Trim(std::string_view(*text).substr(pending)).empty()) {
        writer_->AddText(pending);
      } else {
        text->resize(pending);
      }
      pending = text->size();
    };

    for (;;) {
      if (AtEnd()) return Error("unterminated element: " + std::string(name));
      if (Peek() == '<') {
        if (ConsumeLiteral("</")) {
          flush_text();
          WEBDEX_ASSIGN_OR_RETURN(const std::string_view close_name,
                                  ParseName());
          if (close_name != name) {
            return Error("mismatched end tag: expected </" +
                         std::string(name) + ">");
          }
          SkipSpace();
          if (!Consume('>')) return Error("malformed end tag");
          writer_->CloseElement();
          return Status::OK();
        }
        if (ConsumeLiteral("<!--")) {
          const size_t end = text_.find("-->", pos_);
          if (end == std::string_view::npos) {
            return Error("unterminated comment");
          }
          pos_ = end + 3;
          continue;
        }
        if (ConsumeLiteral("<![CDATA[")) {
          const size_t end = text_.find("]]>", pos_);
          if (end == std::string_view::npos) return Error("unterminated CDATA");
          text->append(text_.substr(pos_, end - pos_));
          pos_ = end + 3;
          continue;
        }
        if (text_.substr(pos_, 2) == "<?") {
          const size_t end = text_.find("?>", pos_);
          if (end == std::string_view::npos) return Error("unterminated PI");
          pos_ = end + 2;
          continue;
        }
        flush_text();
        WEBDEX_RETURN_IF_ERROR(ParseElement());
        pending = text->size();
        continue;
      }
      const size_t start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      WEBDEX_RETURN_IF_ERROR(
          AppendDecoded(text_.substr(start, pos_ - start), text));
    }
  }

  // Decrements the live depth when a ParseElement frame unwinds.
  class DepthGuard {
   public:
    explicit DepthGuard(int* depth) : depth_(depth) {}
    ~DepthGuard() { --*depth_; }

   private:
    int* depth_;
  };

  std::string_view text_;
  ParserOptions options_;
  DocumentWriter* writer_;
  size_t pos_ = 0;
  int depth_ = 0;
  bool doctype_subset_ = false;
};

}  // namespace

Result<Document> ParseDocument(std::string uri, std::string_view text,
                               const ParserOptions& options) {
  // Node indices and text offsets are 32-bit; a document's decoded text
  // and node count never exceed its size.
  if (text.size() > UINT32_MAX) {
    return Status::InvalidArgument("XML document larger than 4 GiB");
  }
  DocumentWriter& writer = DocumentWriter::Scratch();
  writer.Reset();
  Parser parser(text, options, &writer);
  WEBDEX_RETURN_IF_ERROR(parser.Parse());
  return writer.Finish(std::move(uri), text.size());
}

}  // namespace webdex::xml
