#include "common/varint.h"

namespace webdex {

char* EncodeVarint64(char* dst, uint64_t value) {
  while (value >= 0x80) {
    *dst++ = static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  *dst++ = static_cast<char>(value);
  return dst;
}

void PutVarint64(std::string* out, uint64_t value) {
  char buf[10];
  out->append(buf, EncodeVarint64(buf, value));
}

Result<uint64_t> GetVarint64(std::string_view data, size_t* offset) {
  uint64_t value = 0;
  int shift = 0;
  while (*offset < data.size()) {
    const uint8_t byte = static_cast<uint8_t>(data[(*offset)++]);
    if (shift == 63 && (byte & 0x7e) != 0) {
      return Status::Corruption("varint64 overflow");
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) return Status::Corruption("varint64 too long");
  }
  return Status::Corruption("truncated varint64");
}

size_t VarintLength(uint64_t value) {
  size_t len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

}  // namespace webdex
