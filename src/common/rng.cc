#include "common/rng.h"

#include <cassert>
#include <cstring>

namespace webdex {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(s);
}

uint64_t Rng::Next() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span may wrap to 0 when covering the full 64-bit range.
  if (span == 0) return static_cast<int64_t>(Next());
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Rng Rng::Fork() { return Rng(Next()); }

Rng Rng::ForKey(uint64_t base_seed, std::string_view key) {
  // FNV-1a over the key bytes, folded with the base seed through
  // SplitMix64 so that nearby seeds / similar keys land far apart.
  uint64_t s = base_seed ^ Fnv1a64(key);
  return Rng(SplitMix64(s));
}

std::string Rng::NextUuid() {
  std::string uuid(kUuidSize, '\0');
  WriteUuid(uuid.data());
  return uuid;
}

void Rng::WriteUuid(char* out) {
  uint64_t hi = Next();
  uint64_t lo = Next();
  // Set version 4 and RFC 4122 variant bits.
  hi = (hi & 0xffffffffffff0fffULL) | 0x0000000000004000ULL;
  lo = (lo & 0x3fffffffffffffffULL) | 0x8000000000000000ULL;
  // Lowercase hex of hi then lo, grouped 8-4-4-4-12 by dashes.
  static const char kHex[] = "0123456789abcdef";
  char* p = out + kUuidSize;
  for (int digit = 0; digit < 32; ++digit) {
    if (digit == 12 || digit == 16 || digit == 20 || digit == 24) *--p = '-';
    uint64_t& word = digit < 16 ? lo : hi;
    *--p = kHex[word & 0xf];
    word >>= 4;
  }
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double pick = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick < 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace webdex
