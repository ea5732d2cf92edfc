#ifndef WEBDEX_COMMON_VARINT_H_
#define WEBDEX_COMMON_VARINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace webdex {

/// LEB128-style unsigned varint codec.
///
/// The LUI / 2LUPI indexing strategies store the sorted (pre, post, depth)
/// structural identifiers of every node carrying a given key as one binary
/// DynamoDB attribute value (paper Sections 5.3 and 8.4 credit this compact
/// binary encoding for much of the DynamoDB-vs-SimpleDB improvement).

/// Writes `value` varint-encoded at `dst`, which must have room for
/// VarintLength(value) bytes; returns the byte after it.
char* EncodeVarint64(char* dst, uint64_t value);

/// Appends `value` varint-encoded to `*out`.
void PutVarint64(std::string* out, uint64_t value);

/// Decodes one varint starting at `*offset` in `data`, advances `*offset`.
/// Fails with Corruption on truncated or oversized input.
Result<uint64_t> GetVarint64(std::string_view data, size_t* offset);

/// Number of bytes PutVarint64 would use for `value`.
size_t VarintLength(uint64_t value);

}  // namespace webdex

#endif  // WEBDEX_COMMON_VARINT_H_
