#ifndef WEBDEX_INDEX_INTERN_H_
#define WEBDEX_INDEX_INTERN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace webdex::index {

/// Arena-backed string interning for the native index core
/// (docs/PERFORMANCE.md).  The extraction hot path touches every key and
/// label path of every document many times; interning maps each distinct
/// string to a stable 32-bit handle exactly once, after which the pipeline
/// compares, hashes, sorts and copies integers instead of heap strings.
///
/// StringInterner (keys) and PathDict (label paths) are two front ends
/// over one ShardedArenaTable.

/// Stable identifier of an interned string.  Never reused, never
/// invalidated.  kNoHandle doubles as "absent" (Find miss) and as the
/// root parent in PathDict.
using KeyHandle = uint32_t;
using PathHandle = uint32_t;
inline constexpr uint32_t kNoHandle = 0xFFFFFFFFu;

/// Point-in-time interner health, aggregated over shards.  Probe-length
/// counts are clamped at kProbeSlots-1 (a probe of >= 15 steps lands in
/// the last slot).
struct InternStats {
  static constexpr int kProbeSlots = 16;
  uint64_t keys = 0;       // distinct interned strings
  uint64_t bytes = 0;      // key bytes held in the arenas
  uint64_t lookups = 0;    // Intern()/Extend() calls (hits + misses)
  std::array<uint64_t, kProbeSlots> probe_len{};  // probe-length histogram
};

/// The one sharded table under StringInterner and PathDict, in the
/// spirit of radb's string_index over one string_store.  A record is
/// `{data, hash, len, ...}`: the table owns the bytes behind `data` and
/// the hash it was filed under; a front end adds its own fields and
/// decides what "equal" means.
///
/// Each of the kShards shards keeps an open-addressed bucket array of
/// local_index+1 values (0 = empty, grown by doubling at 75% load), a
/// directory of geometrically growing record blocks, and an append-only
/// chunked byte arena.  Nothing is ever moved or freed, so handles
/// (`local_index * kShards + shard`) and the bytes behind them stay valid
/// for the table's lifetime.  Lookups lock one shard; At is lock-free
/// (the caller holding a handle implies a happens-before edge with the
/// insert that produced it — see docs/PERFORMANCE.md).
template <typename Record>
class ShardedArenaTable {
 public:
  static constexpr uint32_t kShards = 16;

  ShardedArenaTable() = default;
  ShardedArenaTable(const ShardedArenaTable&) = delete;
  ShardedArenaTable& operator=(const ShardedArenaTable&) = delete;

  const Record& At(uint32_t handle) const {
    return shards_[handle & (kShards - 1)].At(handle / kShards);
  }

  /// Handle of the record filed under `hash` that `eq` accepts, kNoHandle
  /// if there is none.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const;

  /// Same, inserting on a miss: `fill(record)` sets the front end's own
  /// fields and returns the bytes to copy into the arena.  Counts toward
  /// Stats' lookups and probe lengths.
  template <typename Eq, typename Fill>
  uint32_t FindOrInsert(uint64_t hash, const Eq& eq, const Fill& fill);

  /// Aggregated over shards (locks every shard).
  InternStats Stats() const;

  // Find, FindOrInsert and Stats are defined, and so instantiated, in
  // intern.cc only: the two front ends are the table's only users.

 private:
  /// Record blocks grow geometrically: block b holds kBlockBase << b
  /// records, so a kBlockSlots-slot directory covers every possible local
  /// index while appends never move existing records.
  static constexpr uint32_t kBlockBaseLog2 = 12;
  static constexpr uint32_t kBlockBase = 1u << kBlockBaseLog2;
  static constexpr uint32_t kBlockSlots = 20;
  static constexpr size_t kArenaChunkBytes = 1u << 16;

  struct Shard {
    mutable std::mutex mu;
    /// Open-addressed table of local_index+1 (0 = empty); size is a
    /// power of two.
    std::vector<uint32_t> buckets;
    uint32_t count = 0;
    /// Directory of record blocks; slots are release-published so
    /// lock-free At may chase them with acquire loads.
    std::array<std::atomic<Record*>, kBlockSlots> blocks{};
    std::vector<std::unique_ptr<char[]>> chunks;
    size_t chunk_used = kArenaChunkBytes;  // forces first allocation
    // Stats, maintained under mu.
    uint64_t byte_count = 0;
    uint64_t lookups = 0;
    std::array<uint64_t, InternStats::kProbeSlots> probe_len{};

    ~Shard() {
      // Destruction is externally synchronized (no concurrent readers
      // can outlive the table that hands out the handles).
      for (auto& slot : blocks) delete[] slot.load(std::memory_order_relaxed);
    }

    const Record& At(uint32_t local) const {
      const uint32_t block = BlockOf(local);
      return blocks[block].load(std::memory_order_acquire)
          [local - FirstLocalOf(block)];
    }
    Record& Slot(uint32_t local);
    const char* CopyToArena(std::string_view s);
    void Grow();
    /// The bucket holding the record `eq` accepts, or the empty bucket
    /// where it belongs; `*probes` counts the buckets skipped.
    template <typename Eq>
    size_t Probe(uint64_t hash, const Eq& eq, uint32_t* probes) const;
  };

  static uint32_t BlockOf(uint32_t local) {
    // Block b starts at local kBlockBase*(2^b - 1).
    return 31 - static_cast<uint32_t>(
                    __builtin_clz((local >> kBlockBaseLog2) + 1));
  }
  static uint32_t FirstLocalOf(uint32_t block) {
    return kBlockBase * ((1u << block) - 1);
  }
  static uint32_t ShardOf(uint64_t hash) {
    // Top bits pick the shard so the in-shard bucket index (low bits)
    // stays decorrelated.
    return static_cast<uint32_t>(hash >> 60) & (kShards - 1);
  }

  std::array<Shard, kShards> shards_;
};

/// Interned strings: the table's records are just `{data, hash, len}`.
class StringInterner {
 public:
  StringInterner() = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  /// Returns the handle of `s`, interning it on first sight.  The bytes
  /// are copied into the shard arena; `s` need not outlive the call.
  KeyHandle Intern(std::string_view s);

  /// Handle of `s` if already interned, kNoHandle otherwise.
  KeyHandle Find(std::string_view s) const;

  /// The interned bytes behind `handle`; valid for the interner's
  /// lifetime.  `handle` must have come from this interner.
  std::string_view Resolve(KeyHandle handle) const {
    const Header& h = table_.At(handle);
    return {h.data, h.len};
  }

  /// Distinct strings interned so far (locks every shard).
  uint64_t size() const;

  InternStats Stats() const;

 private:
  struct Header {
    const char* data;
    uint64_t hash;
    uint32_t len;
  };

  ShardedArenaTable<Header> table_;
};

/// Interns full root-to-node label paths as linked (parent, component)
/// pairs — a trie over PathHandles.  Extend is O(1) amortized per node
/// visited during extraction; the full escaped path string (exactly what
/// the pre-interning code built per occurrence) is assembled once on
/// first sight and cached in the arena, so Resolve is a pointer load.
class PathDict {
 public:
  /// `keys` must outlive the dict; component handles are interpreted
  /// against it.
  explicit PathDict(StringInterner* keys) : keys_(keys) {}
  PathDict(const PathDict&) = delete;
  PathDict& operator=(const PathDict&) = delete;

  /// Handle of `parent`/`component` (parent == kNoHandle means a
  /// root-level component).  The cached string is
  /// parent-string + "/" + percent-escaped component (index::PathComponent
  /// escaping), matching the stored-path format byte for byte.  A miss
  /// assembles that string in the caller's `*scratch`.
  PathHandle Extend(PathHandle parent, KeyHandle component,
                    std::string* scratch);

  /// The cached full path string ("/esite/eregions/eitem/ename").
  std::string_view Resolve(PathHandle handle) const {
    const Node& n = table_.At(handle);
    return {n.data, n.len};
  }

  PathHandle Parent(PathHandle handle) const {
    return table_.At(handle).parent;
  }
  KeyHandle LastKey(PathHandle handle) const {
    return table_.At(handle).component;
  }

  /// Root-to-node component key handles, in path order.
  void Components(PathHandle handle, std::vector<KeyHandle>* out) const;

  uint64_t size() const;
  uint64_t bytes() const;

 private:
  struct Node {
    const char* data;  // cached full escaped path
    uint64_t hash;     // of the packed (parent, component) pair
    PathHandle parent;
    KeyHandle component;
    uint32_t len;
  };

  StringInterner* keys_;
  ShardedArenaTable<Node> table_;
};

/// The process-wide interning core the extraction pipeline runs on: one
/// key interner plus the path dictionary over it.  A single global
/// instance is shared by every document, thread and CloudEnv — handles
/// are only ever compared through their resolved strings when ordering
/// matters, so insertion order (which host thread got there first) never
/// leaks into serialized bytes (the determinism contract of
/// docs/PARALLELISM.md).
class InternCore {
 public:
  InternCore() : paths_(&keys_) {}
  InternCore(const InternCore&) = delete;
  InternCore& operator=(const InternCore&) = delete;

  StringInterner& keys() { return keys_; }
  const StringInterner& keys() const { return keys_; }
  PathDict& paths() { return paths_; }
  const PathDict& paths() const { return paths_; }

  static InternCore& Global();

 private:
  StringInterner keys_;
  PathDict paths_;
};

/// Prefix-composing intern helpers for the key(n) encodings of Section 5
/// ("e"+label, "a"+name, "a"+name+" "+value) — assemble the key in the
/// caller's reused `*scratch` and intern it without a heap allocation per
/// call.  Extraction assembles "w"+word keys in its own word cache.
KeyHandle InternElementKey(StringInterner& interner, std::string_view label,
                           std::string* scratch);
KeyHandle InternAttributeNameKey(StringInterner& interner,
                                 std::string_view name, std::string* scratch);
KeyHandle InternAttributeValueKey(StringInterner& interner,
                                  std::string_view name,
                                  std::string_view value,
                                  std::string* scratch);

/// Mirrors the global interner's health into `registry` —
/// `index.intern.keys` / `.bytes` / `.paths` / `.path_bytes` /
/// `.lookups` gauges plus the `index.intern.probe_len` histogram
/// (rebuilt, like PublishUsageMetrics rebuilds the usage gauges).  Must
/// be called from the event-loop thread; the interner itself never
/// touches the registry (MetricRegistry's single-thread contract).
void PublishInternMetrics(common::MetricRegistry* registry);

/// Same, reading an explicit core (tests).
void PublishInternMetrics(common::MetricRegistry* registry,
                          const InternCore& core);

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_INTERN_H_
