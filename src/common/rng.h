#ifndef WEBDEX_COMMON_RNG_H_
#define WEBDEX_COMMON_RNG_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace webdex {

/// FNV-1a 64-bit hash: the one deterministic byte hash behind Rng::ForKey,
/// shard and replica routing, store fingerprints and the index interner.
/// Endian- and platform-stable, so everything built on it reproduces
/// everywhere.
/// `hash` continues a running hash: hashing pieces in turn equals hashing
/// their concatenation.
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t hash = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64).
///
/// The entire simulation is wall-clock free: corpus generation, UUID range
/// keys and fault injection all draw from explicitly seeded `Rng` instances
/// so that every test and benchmark run is exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound).  `bound` must be > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform in [lo, hi] inclusive.  Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability `p` (clamped to [0,1]).
  bool NextBool(double p);

  /// Returns a fresh generator seeded from this one's stream; use to give
  /// sub-components independent deterministic streams.
  Rng Fork();

  /// Generator whose stream depends only on (`base_seed`, `key`) — not on
  /// how many values any other stream has drawn.  This is what makes
  /// per-document work (UUID range keys, Section 6) reproducible no
  /// matter which simulated instance, host thread, or retry processes the
  /// document: seeding by the document URI pins the stream to the
  /// document itself rather than to execution order.
  static Rng ForKey(uint64_t base_seed, std::string_view key);

  /// RFC 4122 version-4 UUID string drawn from this stream, e.g.
  /// "a3e1f2c4-9b7d-4e1a-8f26-0c9d53ab1f40".  The paper (Section 6) uses
  /// UUIDs as DynamoDB range keys so concurrent writers never collide.
  std::string NextUuid();

  /// Characters in a UUID string.
  static constexpr size_t kUuidSize = 36;
  /// NextUuid() written at `out` (kUuidSize characters, no terminator)
  /// instead of into a fresh string; draws the same two values.
  void WriteUuid(char* out);

  /// Picks an element index weighted by `weights` (all >= 0, sum > 0).
  size_t NextWeighted(const std::vector<double>& weights);

  /// Snapshot support (cloud/snapshot.cc): the stream cursor is exactly
  /// the four xoshiro256** state words, so saving and loading them makes
  /// a restored stream continue bit-identically.
  std::array<uint64_t, 4> SaveState() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void LoadState(const std::array<uint64_t, 4>& state) {
    for (size_t i = 0; i < 4; ++i) state_[i] = state[i];
  }

 private:
  uint64_t state_[4];
};

}  // namespace webdex

#endif  // WEBDEX_COMMON_RNG_H_
