#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace webdex {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool ContainsWord(std::string_view haystack, std::string_view word) {
  if (word.empty()) return false;
  const std::string lowered_word = ToLower(word);
  size_t i = 0;
  const size_t n = haystack.size();
  while (i < n) {
    while (i < n && !std::isalnum(static_cast<unsigned char>(haystack[i]))) {
      ++i;
    }
    size_t j = i;
    while (j < n && std::isalnum(static_cast<unsigned char>(haystack[j]))) {
      ++j;
    }
    if (j - i == lowered_word.size()) {
      bool match = true;
      for (size_t k = 0; k < lowered_word.size(); ++k) {
        if (std::tolower(static_cast<unsigned char>(haystack[i + k])) !=
            static_cast<unsigned char>(lowered_word[k])) {
          match = false;
          break;
        }
      }
      if (match) return true;
    }
    i = j;
  }
  return false;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%llu B", (unsigned long long)bytes);
  return StrFormat("%.1f %s", v, kUnits[unit]);
}

std::string HumanDuration(int64_t micros) {
  if (micros < 0) micros = 0;
  const int64_t total_seconds = micros / 1000000;
  if (total_seconds >= 3600) {
    return StrFormat("%lld:%02lld h",
                     (long long)(total_seconds / 3600),
                     (long long)((total_seconds % 3600) / 60));
  }
  if (total_seconds >= 60) {
    return StrFormat("%lld:%02lld min", (long long)(total_seconds / 60),
                     (long long)(total_seconds % 60));
  }
  if (micros >= 1000000) {
    return StrFormat("%.1f s", static_cast<double>(micros) / 1e6);
  }
  if (micros >= 1000) {
    return StrFormat("%.1f ms", static_cast<double>(micros) / 1e3);
  }
  return StrFormat("%lld us", (long long)micros);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

Result<uint64_t> ParseDecimal(std::string_view text, std::string_view what) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    return Status::InvalidArgument(
        StrFormat("malformed %.*s: '%.*s'", static_cast<int>(what.size()),
                  what.data(), static_cast<int>(text.size()), text.data()));
  }
  return value;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace webdex
