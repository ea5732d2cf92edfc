#include "index/intern.h"

#include <algorithm>

#include "common/rng.h"
#include "index/keys.h"

namespace webdex::index {

namespace {

// FNV-1a (common/rng.h), finalized so that low and high bits are both
// usable (shard = high bits, bucket = low bits).
uint64_t HashBytes(std::string_view s) {
  uint64_t h = Fnv1a64(s);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

}  // namespace

// --- ShardedArenaTable ------------------------------------------------------

template <typename Record>
Record& ShardedArenaTable<Record>::Shard::Slot(uint32_t local) {
  const uint32_t block = BlockOf(local);
  Record* base = blocks[block].load(std::memory_order_relaxed);
  if (base == nullptr) {
    base = new Record[size_t{kBlockBase} << block];
    blocks[block].store(base, std::memory_order_release);
  }
  return base[local - FirstLocalOf(block)];
}

template <typename Record>
const char* ShardedArenaTable<Record>::Shard::CopyToArena(
    std::string_view s) {
  char* data;
  if (s.size() > kArenaChunkBytes) {
    // Oversized string gets a dedicated chunk; the current bump chunk —
    // if any — stays usable at the back.
    chunks.push_back(std::make_unique<char[]>(s.size()));
    data = chunks.back().get();
    if (chunks.size() >= 2) {
      std::swap(chunks[chunks.size() - 1], chunks[chunks.size() - 2]);
    } else {
      chunk_used = kArenaChunkBytes;  // no bump chunk yet: force one next
    }
  } else {
    if (chunks.empty() || s.size() > kArenaChunkBytes - chunk_used) {
      chunks.push_back(std::make_unique<char[]>(kArenaChunkBytes));
      chunk_used = 0;
    }
    data = chunks.back().get() + chunk_used;
    chunk_used += s.size();
  }
  std::memcpy(data, s.data(), s.size());
  return data;
}

template <typename Record>
void ShardedArenaTable<Record>::Shard::Grow() {
  const size_t new_size = buckets.empty() ? 1024 : buckets.size() * 2;
  std::vector<uint32_t> next(new_size, 0);
  const size_t mask = new_size - 1;
  for (uint32_t slot : buckets) {
    if (slot == 0) continue;
    size_t i = At(slot - 1).hash & mask;
    while (next[i] != 0) i = (i + 1) & mask;
    next[i] = slot;
  }
  buckets = std::move(next);
}

template <typename Record>
template <typename Eq>
size_t ShardedArenaTable<Record>::Shard::Probe(uint64_t hash, const Eq& eq,
                                               uint32_t* probes) const {
  const size_t mask = buckets.size() - 1;
  size_t i = hash & mask;
  while (buckets[i] != 0) {
    const Record& r = At(buckets[i] - 1);
    if (r.hash == hash && eq(r)) break;
    i = (i + 1) & mask;
    *probes += 1;
  }
  return i;
}

template <typename Record>
template <typename Eq>
uint32_t ShardedArenaTable<Record>::Find(uint64_t hash, const Eq& eq) const {
  const uint32_t shard_idx = ShardOf(hash);
  const Shard& shard = shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.buckets.empty()) return kNoHandle;
  uint32_t probes = 0;
  const uint32_t slot = shard.buckets[shard.Probe(hash, eq, &probes)];
  return slot == 0 ? kNoHandle : (slot - 1) * kShards + shard_idx;
}

template <typename Record>
template <typename Eq, typename Fill>
uint32_t ShardedArenaTable<Record>::FindOrInsert(uint64_t hash, const Eq& eq,
                                                 const Fill& fill) {
  const uint32_t shard_idx = ShardOf(hash);
  Shard& shard = shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.lookups += 1;
  if (shard.buckets.empty() ||
      (shard.count + 1) * 4 > shard.buckets.size() * 3) {
    shard.Grow();
  }
  uint32_t probes = 0;
  const size_t i = shard.Probe(hash, eq, &probes);
  shard.probe_len[std::min<uint32_t>(probes, InternStats::kProbeSlots - 1)] +=
      1;
  if (shard.buckets[i] != 0) {
    return (shard.buckets[i] - 1) * kShards + shard_idx;
  }

  const uint32_t local = shard.count;
  Record& r = shard.Slot(local);
  const std::string_view bytes = fill(r);
  r.data = shard.CopyToArena(bytes);
  r.hash = hash;
  r.len = static_cast<uint32_t>(bytes.size());
  shard.count += 1;
  shard.byte_count += bytes.size();
  shard.buckets[i] = local + 1;
  return local * kShards + shard_idx;
}

template <typename Record>
InternStats ShardedArenaTable<Record>::Stats() const {
  InternStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.keys += shard.count;
    stats.bytes += shard.byte_count;
    stats.lookups += shard.lookups;
    for (int i = 0; i < InternStats::kProbeSlots; ++i) {
      stats.probe_len[i] += shard.probe_len[i];
    }
  }
  return stats;
}

// --- StringInterner ----------------------------------------------------------

KeyHandle StringInterner::Intern(std::string_view s) {
  return table_.FindOrInsert(
      HashBytes(s),
      [s](const Header& h) { return std::string_view(h.data, h.len) == s; },
      [s](Header&) { return s; });
}

KeyHandle StringInterner::Find(std::string_view s) const {
  return table_.Find(HashBytes(s), [s](const Header& h) {
    return std::string_view(h.data, h.len) == s;
  });
}

uint64_t StringInterner::size() const { return table_.Stats().keys; }

InternStats StringInterner::Stats() const { return table_.Stats(); }

// --- PathDict --------------------------------------------------------------

PathHandle PathDict::Extend(PathHandle parent, KeyHandle component,
                            std::string* scratch) {
  const uint64_t key = (uint64_t{parent} << 32) | uint64_t{component};
  return table_.FindOrInsert(
      HashBytes({reinterpret_cast<const char*>(&key), sizeof(key)}),
      [parent, component](const Node& n) {
        return n.parent == parent && n.component == component;
      },
      [this, parent, component, scratch](Node& n) {
        // Miss: assemble parent + "/" + escaped(component) under the
        // shard lock.  Parent resolution is lock-free, so no cross-shard
        // lock order exists.
        n.parent = parent;
        n.component = component;
        scratch->clear();
        if (parent != kNoHandle) scratch->append(Resolve(parent));
        scratch->push_back('/');
        AppendPathComponent(scratch, keys_->Resolve(component));
        return std::string_view(*scratch);
      });
}

void PathDict::Components(PathHandle handle,
                          std::vector<KeyHandle>* out) const {
  out->clear();
  for (PathHandle h = handle; h != kNoHandle; h = Parent(h)) {
    out->push_back(LastKey(h));
  }
  std::reverse(out->begin(), out->end());
}

uint64_t PathDict::size() const { return table_.Stats().keys; }

uint64_t PathDict::bytes() const { return table_.Stats().bytes; }

// --- InternCore ------------------------------------------------------------

InternCore& InternCore::Global() {
  static InternCore* core = new InternCore();
  return *core;
}

namespace {

KeyHandle InternPrefixed(StringInterner& interner, char prefix,
                         std::string_view body, std::string* scratch) {
  scratch->clear();
  scratch->push_back(prefix);
  scratch->append(body);
  return interner.Intern(*scratch);
}

}  // namespace

KeyHandle InternElementKey(StringInterner& interner, std::string_view label,
                           std::string* scratch) {
  return InternPrefixed(interner, kElementPrefix, label, scratch);
}

KeyHandle InternAttributeNameKey(StringInterner& interner,
                                 std::string_view name, std::string* scratch) {
  return InternPrefixed(interner, kAttributePrefix, name, scratch);
}

KeyHandle InternAttributeValueKey(StringInterner& interner,
                                  std::string_view name,
                                  std::string_view value,
                                  std::string* scratch) {
  scratch->clear();
  scratch->push_back(kAttributePrefix);
  scratch->append(name);
  scratch->push_back(' ');
  scratch->append(value);
  return interner.Intern(*scratch);
}

// --- Metrics ---------------------------------------------------------------

void PublishInternMetrics(common::MetricRegistry* registry,
                          const InternCore& core) {
  const InternStats stats = core.keys().Stats();
  registry->GetGauge("index.intern.keys")
      ->Set(static_cast<double>(stats.keys));
  registry->GetGauge("index.intern.bytes")
      ->Set(static_cast<double>(stats.bytes));
  registry->GetGauge("index.intern.lookups")
      ->Set(static_cast<double>(stats.lookups));
  registry->GetGauge("index.intern.paths")
      ->Set(static_cast<double>(core.paths().size()));
  registry->GetGauge("index.intern.path_bytes")
      ->Set(static_cast<double>(core.paths().bytes()));
  common::Histogram* probes =
      registry->GetHistogram("index.intern.probe_len");
  probes->Reset();
  for (int i = 0; i < InternStats::kProbeSlots; ++i) {
    probes->RecordN(static_cast<double>(i), stats.probe_len[i]);
  }
}

void PublishInternMetrics(common::MetricRegistry* registry) {
  PublishInternMetrics(registry, InternCore::Global());
}

}  // namespace webdex::index
