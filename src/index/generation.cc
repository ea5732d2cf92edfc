#include "index/generation.h"

#include "common/strings.h"

namespace webdex::index {

void GenerationMap::Apply(const std::string& uri, uint64_t generation,
                          bool tombstoned) {
  GenerationInfo& info = entries_[uri];
  if (generation < info.generation) return;
  if (generation == info.generation && !tombstoned) return;
  info.generation = generation;
  info.tombstoned = tombstoned;
}

bool GenerationMap::Visible(std::string_view uri, uint64_t stamp) const {
  auto it = entries_.find(uri);
  if (it == entries_.end()) return stamp == 0;
  return !it->second.tombstoned && stamp == it->second.generation;
}

const GenerationInfo* GenerationMap::Find(const std::string& uri) const {
  auto it = entries_.find(uri);
  return it == entries_.end() ? nullptr : &it->second;
}

void GenerationMap::Erase(const std::string& uri) { entries_.erase(uri); }

uint64_t GenerationMap::TombstoneCount() const {
  uint64_t count = 0;
  for (const auto& [uri, info] : entries_) {
    if (info.tombstoned) count += 1;
  }
  return count;
}

std::string GenerationRangeKey(uint64_t generation) {
  return StrFormat("%020llu", static_cast<unsigned long long>(generation));
}

cloud::Item MakeMetaItem(const std::string& uri, uint64_t generation,
                         bool tombstoned) {
  cloud::Attributes attrs{
      {kGenAttr,
       {StrFormat("%llu", static_cast<unsigned long long>(generation))}}};
  if (tombstoned) attrs[kTombstoneAttr] = {"1"};
  return cloud::Item(uri, GenerationRangeKey(generation), attrs);
}

Result<uint64_t> ParseGenerationStamp(std::string_view value) {
  return ParseDecimal(value, "generation stamp");
}

uint64_t StampOf(const cloud::ItemView& item) {
  const auto values = item.attrs().Find(kGenAttr);
  return values.has_value() ? StampValue(*values) : 0;
}

uint64_t StampValue(const cloud::Item::Values& values) {
  if (values.empty()) return 0;
  auto stamp = ParseGenerationStamp(values.front());
  return stamp.ok() ? stamp.value() : 0;
}

void ApplyMetaItem(const cloud::ItemView& item, GenerationMap* map) {
  const cloud::Item::AttributeList attrs = item.attrs();
  const auto values = attrs.Find(kGenAttr);
  if (!values.has_value() || values->empty()) return;
  auto stamp = ParseGenerationStamp(values->front());
  if (!stamp.ok()) return;
  map->Apply(std::string(item.hash_key), stamp.value(),
             attrs.Find(kTombstoneAttr).has_value());
}

}  // namespace webdex::index
