#ifndef WEBDEX_XML_TOKENIZER_H_
#define WEBDEX_XML_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace webdex::xml {

/// The word alphabet: ASCII letters and digits, exactly what the "C"
/// locale's std::isalnum accepts.  Every other byte, bytes >= 0x80
/// included, separates words, so no key depends on the process locale.
constexpr bool IsWordByte(char c) {
  const auto u = static_cast<unsigned char>(c);
  return static_cast<unsigned char>((u | 0x20) - 'a') < 26 ||
         static_cast<unsigned char>(u - '0') < 10;
}

/// The "C" locale's std::tolower: ASCII upper case to lower case, every
/// other byte unchanged.
constexpr char LowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// Splits character data into full-text index words: maximal runs of
/// word bytes, lowercased.  This is the word granularity of the `w‖word`
/// keys (paper Section 5) and of the `contains(c)` predicate (Section 4),
/// which are deliberately consistent with each other so a containment
/// look-up can be answered from the word index.
std::vector<std::string> TokenizeWords(std::string_view text);

/// Streaming form of TokenizeWords for the extraction hot path: calls
/// `fn(word)` per word with a view of `text` itself, in its original
/// case.  The caller lowercases (LowerAscii) as it reads the bytes.
template <typename Fn>
void ForEachWord(std::string_view text, Fn&& fn) {
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && !IsWordByte(text[i])) ++i;
    const size_t start = i;
    while (i < n && IsWordByte(text[i])) ++i;
    if (i > start) fn(text.substr(start, i - start));
  }
}

/// The paper's `contains(word)` predicate (Section 4): true when some
/// word of `text`, split as ForEachWord splits it, equals `word` up to
/// ASCII case.  For a `word` of word bytes, it holds exactly when the
/// text's extraction stored the key `w‖` + NormalizeWord(word).  An
/// empty `word` is in no text.  Allocation-free.
bool ContainsWord(std::string_view text, std::string_view word);

/// Lowercases and validates a single word (what a query constant must be
/// reduced to before index look-up).  Multi-word constants tokenize into
/// several look-ups.
std::string NormalizeWord(std::string_view word);

}  // namespace webdex::xml

#endif  // WEBDEX_XML_TOKENIZER_H_
