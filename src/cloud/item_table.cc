#include "cloud/item_table.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace webdex::cloud {

namespace {

uint64_t Prefix(std::string_view s) {
  uint64_t prefix = 0;
  for (size_t i = 0; i < 8; ++i) {
    const unsigned byte =
        i < s.size() ? static_cast<unsigned char>(s[i]) : 0u;
    prefix = prefix << 8 | byte;
  }
  return prefix;
}

/// Orders two strings whose prefixes are equal: when both fit in their
/// prefix, the shorter is a prefix of the longer.
int CompareRest(std::string_view a, std::string_view b) {
  if (a.size() <= 8 && b.size() <= 8) {
    return a.size() == b.size() ? 0 : a.size() < b.size() ? -1 : 1;
  }
  return a.compare(b);
}

}  // namespace

ItemTable::Key ItemTable::KeyOf(std::string_view hash,
                                std::string_view range) {
  return {Prefix(hash), Prefix(range), hash, range};
}

bool ItemTable::Less(const Entry& a, const Entry& b) {
  return Compare(a.key(), b.key()) < 0;
}

int ItemTable::Compare(const Key& a, const Key& b) {
  if (a.hash_prefix != b.hash_prefix) {
    return a.hash_prefix < b.hash_prefix ? -1 : 1;
  }
  if (const int c = CompareRest(a.hash, b.hash)) return c;
  if (a.range_prefix != b.range_prefix) {
    return a.range_prefix < b.range_prefix ? -1 : 1;
  }
  return CompareRest(a.range, b.range);
}

std::vector<ItemTable::Entry>::iterator ItemTable::LowerBound(
    const Key& key) const {
  Seal();
  return std::lower_bound(entries_.begin(), entries_.end(), key,
                          [](const Entry& e, const Key& k) {
                            return Compare(e.key(), k) < 0;
                          });
}

void ItemTable::Count(const Entry& e) const {
  stored_bytes_ += e.size_bytes();
  item_count_ += 1;
  value_count_ += e.value_count;
}

void ItemTable::Forget(Entry& e) const {
  if (e.dead) return;
  stored_bytes_ -= e.size_bytes();
  item_count_ -= 1;
  value_count_ -= e.value_count;
  dead_bytes_ += e.arena_size();
  e.dead = true;
}

char* ItemTable::Allocate(size_t size) {
  if (size > chunk_left_) {
    chunk_left_ = std::max(kChunkBytes, size);
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(chunk_left_));
    next_ = chunks_.back().get();
    arena_bytes_ += chunk_left_;
  }
  char* data = next_;
  next_ += size;
  chunk_left_ -= size;
  arena_used_ += size;
  return data;
}

ItemView ItemTable::View(const Entry& e) {
  return {{e.data, e.hash_size},
          {e.data + e.hash_size, e.record_size},
          e.range_size,
          e.value_count,
          e.payload_bytes};
}

void ItemTable::Put(const ItemView& item) {
  MaybeRepack();
  const std::string_view record = item.record_;
  char* data = Allocate(item.hash_key.size() + record.size());
  std::memcpy(data, item.hash_key.data(), item.hash_key.size());
  std::memcpy(data + item.hash_key.size(), record.data(), record.size());
  const Key key = KeyOf(item.hash_key, item.range_key());
  entries_.push_back({key.hash_prefix, key.range_prefix, data,
                      static_cast<uint32_t>(item.hash_key.size()),
                      static_cast<uint32_t>(record.size()), item.range_size_,
                      item.value_count_,
                      static_cast<uint32_t>(item.payload_bytes_)});
}

std::vector<ItemTable::Entry>::iterator ItemTable::Gallop(
    std::vector<Entry>::iterator first, std::vector<Entry>::iterator last,
    const Entry& e) {
  // Everything before `first` is below `e`.  Doubles the step until an
  // entry is not, then bisects that step.
  std::ptrdiff_t step = 1;
  while (step <= last - first && Less(first[step - 1], e)) {
    first += step;
    step *= 2;
  }
  return std::lower_bound(first, first + std::min(step, last - first), e,
                          Less);
}

const ItemTable& ItemTable::Seal() const {
  if (run_size_ == entries_.size()) return *this;
  // Stable, so equal keys stay in put order.
  std::stable_sort(entries_.begin() + run_size_, entries_.end(), Less);
  // The last put of each key wins.  It replaces an equal run entry in
  // place; the other winners are kept after the run, each with the run
  // position it goes before.  The tail is sorted, so each search starts
  // at the last hit.
  const auto run_end = entries_.begin() + run_size_;
  auto kept = run_end;
  std::vector<size_t> at;
  auto hit = entries_.begin();
  for (auto it = run_end; it != entries_.end(); ++it) {
    if (it + 1 != entries_.end() && Compare(it->key(), it[1].key()) == 0) {
      dead_bytes_ += it->arena_size();
      continue;
    }
    Count(*it);
    hit = Gallop(hit, run_end, *it);
    if (hit != run_end && Compare(hit->key(), it->key()) == 0) {
      Forget(*hit);
      *hit = *it;
    } else {
      *kept++ = *it;
      // A first seal (empty run) leaves the sorted tail where it is.
      if (run_size_ > 0) {
        at.push_back(static_cast<size_t>(hit - entries_.begin()));
      }
    }
  }
  entries_.erase(kept, entries_.end());
  // Merges from the back: each run block moves up once, past the
  // winners that go before its end, and the winner at its front lands
  // in the gap.
  const std::vector<Entry> winners(entries_.begin() + run_size_,
                                   entries_.begin() + run_size_ + at.size());
  size_t end = run_size_;
  for (size_t k = at.size(); k-- > 0;) {
    std::move_backward(entries_.begin() + at[k], entries_.begin() + end,
                       entries_.begin() + end + k + 1);
    entries_[at[k] + k] = winners[k];
    end = at[k];
  }
  run_size_ = entries_.size();
  return *this;
}

void ItemTable::MaybeRepack() {
  if (dead_bytes_ <= kChunkBytes || 4 * dead_bytes_ <= arena_used_) return;
  Seal();
  std::erase_if(entries_, [](const Entry& e) { return e.dead; });
  run_size_ = entries_.size();
  // Copies the records in address order and frees each old chunk once
  // it is drained, so the old and new copies overlap by at most a chunk.
  const std::less<const char*> below;
  std::vector<Entry*> order;
  order.reserve(entries_.size());
  for (Entry& e : entries_) order.push_back(&e);
  std::sort(order.begin(), order.end(), [&](const Entry* a, const Entry* b) {
    return below(a->data, b->data);
  });
  auto old = std::move(chunks_);
  std::sort(old.begin(), old.end(), [&](const auto& a, const auto& b) {
    return below(a.get(), b.get());
  });
  chunks_.clear();
  chunk_left_ = arena_bytes_ = arena_used_ = dead_bytes_ = 0;
  auto chunk = old.begin();
  for (Entry* e : order) {
    while (chunk + 1 != old.end() && !below(e->data, chunk[1].get())) {
      (chunk++)->reset();
    }
    char* data = Allocate(e->arena_size());
    std::memcpy(data, e->data, e->arena_size());
    e->data = data;
  }
}

std::optional<uint64_t> ItemTable::Erase(std::string_view hash_key,
                                         std::string_view range_key) {
  const Key key = KeyOf(hash_key, range_key);
  const auto it = LowerBound(key);
  if (it == entries_.end() || it->dead || Compare(it->key(), key) != 0) {
    return std::nullopt;
  }
  const uint64_t bytes = it->size_bytes();
  Forget(*it);
  MaybeRepack();
  return bytes;
}

void ItemTable::AppendItems(std::string_view hash_key,
                            std::vector<ItemView>* out) const {
  for (auto it = LowerBound(KeyOf(hash_key, {}));
       it != entries_.end() && it->key().hash == hash_key; ++it) {
    if (!it->dead) out->push_back(View(*it));
  }
}

ItemStore::ItemStore(const char* name, const char* noun,
                     const StoreLimits& limits, uint64_t item_overhead_bytes,
                     uint64_t value_overhead_bytes)
    : name_(name),
      noun_(noun),
      limits_(limits),
      item_overhead_bytes_(item_overhead_bytes),
      value_overhead_bytes_(value_overhead_bytes) {}

Status ItemStore::Create(const std::string& table) {
  if (!tables_.try_emplace(table).second) {
    return Status::AlreadyExists(std::string(noun_) + " exists: " + table);
  }
  return Status::OK();
}

Result<ItemTable*> ItemStore::Open(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such " + std::string(noun_) + ": " + table);
  }
  return &it->second;
}

const ItemTable& ItemStore::Lookup(const std::string& table) const {
  static const ItemTable kEmpty;
  auto it = tables_.find(table);
  return it == tables_.end() ? kEmpty : it->second;
}

uint64_t ItemStore::OverheadBytes(const std::string& table) const {
  const ItemTable& t = Lookup(table);
  return t.item_count() * item_overhead_bytes_ +
         t.value_count() * value_overhead_bytes_;
}

std::vector<std::string> ItemStore::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

void ItemStore::RestoreItem(const std::string& table, const Item& item) {
  tables_[table].Put(item);
}

}  // namespace webdex::cloud
