#include "cloud/item.h"

#include "common/varint.h"

namespace webdex::cloud {
namespace {

// Records are written only by ItemBuilder, so readers trust them: lengths
// and counts are common/varint.h's LEB128 varints.
uint64_t ReadVarint(const char** p) {
  uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    const auto byte = static_cast<uint8_t>(*(*p)++);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) return value;
  }
}

std::string_view ReadBytes(const char** p) {
  const uint64_t size = ReadVarint(p);
  const std::string_view bytes(*p, size);
  *p += size;
  return bytes;
}

}  // namespace

std::string_view Item::Values::iterator::operator*() const {
  const char* p = p_;
  return ReadBytes(&p);
}

Item::Values::iterator& Item::Values::iterator::operator++() {
  ReadBytes(&p_);
  if (--left_ == 0) p_ = nullptr;
  return *this;
}

Item::Attribute Item::AttributeList::iterator::operator*() const {
  const char* p = p_;
  const std::string_view name = ReadBytes(&p);
  const uint64_t count = ReadVarint(&p);
  return {name, Values(p, count)};
}

Item::AttributeList::iterator& Item::AttributeList::iterator::operator++() {
  ReadBytes(&p_);
  for (uint64_t values = ReadVarint(&p_); values > 0; --values) {
    ReadBytes(&p_);
  }
  if (--left_ == 0) p_ = nullptr;
  return *this;
}

std::optional<Item::Values> Item::AttributeList::Find(
    std::string_view name) const {
  for (const Attribute attr : *this) {
    if (attr.name == name) return attr.values;
  }
  return std::nullopt;
}

Item::Item(std::string hash_key, std::string_view range_key,
           const Attributes& attrs) {
  size_t bytes = ItemBuilder::HeaderBytes(range_key.size(), attrs.size());
  for (const auto& [name, values] : attrs) {
    bytes += ItemBuilder::AttributeBytes(name, values.size());
    for (const auto& value : values) {
      bytes += ItemBuilder::ValueBytes(value.size());
    }
  }
  ItemBuilder builder(std::move(hash_key), range_key, attrs.size(), bytes);
  for (const auto& [name, values] : attrs) {
    builder.AddAttribute(name, values.size());
    for (const auto& value : values) builder.AddValue(value);
  }
  *this = std::move(builder).Build();
}

Item::Item(const ItemView& view)
    : hash_key(view.hash_key),
      record_(view.record_),
      range_size_(view.range_size_),
      value_count_(view.value_count_),
      payload_bytes_(view.payload_bytes_) {}

Item::AttributeList Item::attrs() const { return ItemView(*this).attrs(); }

Item::AttributeList ItemView::attrs() const {
  const char* p = record_.data() + range_size_;
  const uint64_t count = ReadVarint(&p);
  return {p, count};
}

Attributes Item::ToAttributes() const {
  Attributes out;
  for (const auto& [name, values] : attrs()) {
    out.emplace_hint(out.end(), name,
                     AttributeValues(values.begin(), values.end()));
  }
  return out;
}

ItemBuilder::ItemBuilder(std::string hash_key, std::string_view range_key,
                         uint64_t attribute_count, size_t record_bytes)
    : out_(&item_.record_) {
  item_.hash_key = std::move(hash_key);
  out_->clear();
  out_->reserve(record_bytes);
  Start(range_key, attribute_count);
}

ItemBuilder::ItemBuilder(std::string* buffer, std::string_view hash_key,
                         std::string_view range_key, uint64_t attribute_count)
    : out_(buffer) {
  packed_.offset = buffer->size();
  packed_.hash_size = static_cast<uint32_t>(hash_key.size());
  buffer->append(hash_key);
  Start(range_key, attribute_count);
}

void ItemBuilder::Start(std::string_view range_key,
                        uint64_t attribute_count) {
  out_->append(range_key);
  PutVarint64(out_, attribute_count);
  packed_.range_size = static_cast<uint32_t>(range_key.size());
  packed_.payload_bytes = range_key.size();
}

void ItemBuilder::AddAttribute(std::string_view name, uint64_t value_count) {
  PutVarint64(out_, name.size());
  out_->append(name);
  PutVarint64(out_, value_count);
  packed_.payload_bytes += name.size();
  packed_.value_count += static_cast<uint32_t>(value_count);
}

void ItemBuilder::AddValue(std::string_view value) {
  PutVarint64(out_, value.size());
  out_->append(value);
  packed_.payload_bytes += value.size();
}

Item ItemBuilder::Build() && {
  item_.range_size_ = packed_.range_size;
  item_.value_count_ = packed_.value_count;
  item_.payload_bytes_ = packed_.payload_bytes;
  return std::move(item_);
}

size_t ItemBuilder::HeaderBytes(size_t range_size, uint64_t attribute_count) {
  return range_size + VarintLength(attribute_count);
}

size_t ItemBuilder::AttributeBytes(std::string_view name,
                                   uint64_t value_count) {
  return VarintLength(name.size()) + name.size() + VarintLength(value_count);
}

size_t ItemBuilder::ValueBytes(size_t size) {
  return VarintLength(size) + size;
}

}  // namespace webdex::cloud
