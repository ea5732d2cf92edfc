#ifndef WEBDEX_COMMON_STRINGS_H_
#define WEBDEX_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace webdex {

/// Splits `input` on the single-character `sep`.  Empty pieces are kept:
/// Split("a,,b", ',') -> {"a", "", "b"}.  Split("", ',') -> {""}.
std::vector<std::string> Split(std::string_view input, char sep);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Parses `text` as an unsigned decimal: one or more ASCII digits and
/// nothing else (no sign, no spaces).  Empty input, any other byte and a
/// value past UINT64_MAX are kInvalidArgument, naming `what`.
Result<uint64_t> ParseDecimal(std::string_view text, std::string_view what);

/// Formats a byte count as e.g. "12.3 MB".
std::string HumanBytes(uint64_t bytes);

/// Formats microseconds as e.g. "2:11" (hh:mm) or "13.2 s" depending on
/// magnitude; used by benchmark tables.
std::string HumanDuration(int64_t micros);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters become their \-escapes.  Returns
/// the escaped body only (no surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace webdex

#endif  // WEBDEX_COMMON_STRINGS_H_
