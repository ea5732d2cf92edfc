#include "xml/tokenizer.h"

namespace webdex::xml {

std::vector<std::string> TokenizeWords(std::string_view text) {
  std::vector<std::string> words;
  ForEachWord(text, [&words](std::string_view word) {
    std::string& lowered = words.emplace_back(word);
    for (char& c : lowered) c = LowerAscii(c);
  });
  return words;
}

std::string NormalizeWord(std::string_view word) {
  std::string out;
  out.reserve(word.size());
  for (char c : word) {
    if (IsWordByte(c)) out.push_back(LowerAscii(c));
  }
  return out;
}

}  // namespace webdex::xml
