#ifndef WEBDEX_CLOUD_ITEM_H_
#define WEBDEX_CLOUD_ITEM_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace webdex::cloud {

/// Attribute set of a key-value item as a map: each attribute has a name
/// and one or more values (paper Figure 6: table -> item -> attribute ->
/// name/values).  Items keep their attributes encoded (Item below); the
/// map is the form tests and hand-built items are written in.
using AttributeValues = std::vector<std::string>;
using Attributes = std::map<std::string, AttributeValues>;

class ItemView;

/// One stored item.  The primary key is composite: a hash key (the index
/// key computed by key(n), Section 5) and a range key (a client-generated
/// UUID, Section 6, so that concurrent loaders never overwrite each
/// other's items).
///
/// Apart from the hash key, an item is one encoded record, the bytes a
/// store keeps (cloud/item_table.h): the range key, then varint(attribute
/// count), then per attribute in ascending name order varint(name size),
/// the name, varint(value count) and per value varint(size) and its
/// bytes.  The item also carries its billable size and value count,
/// computed once when it is built, so storing, validating and billing it
/// never walk it.  Readers iterate attributes in place: names and values
/// are views into the record and live as long as the item.
class Item {
 public:
  /// The values of one attribute, read in place from the record.
  class Values {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = std::string_view;
      using difference_type = std::ptrdiff_t;
      using pointer = const std::string_view*;
      using reference = std::string_view;

      iterator() = default;
      std::string_view operator*() const;
      iterator& operator++();
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator& o) const { return left_ == o.left_; }

     private:
      friend class Values;
      iterator(const char* p, uint64_t left) : p_(p), left_(left) {}
      const char* p_ = nullptr;  // the next value's size varint
      uint64_t left_ = 0;        // values not yet passed
    };

    uint64_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    iterator begin() const { return {first_, count_}; }
    iterator end() const { return {nullptr, 0}; }
    std::string_view front() const { return *begin(); }

   private:
    friend class Item;
    Values(const char* first, uint64_t count) : first_(first), count_(count) {}
    const char* first_;
    uint64_t count_;
  };

  /// One attribute: its name and its values.
  struct Attribute {
    std::string_view name;
    Values values;
  };

  /// The attributes of an item, in ascending name order.
  class AttributeList {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Attribute;
      using difference_type = std::ptrdiff_t;
      using pointer = const Attribute*;
      using reference = Attribute;

      iterator() = default;
      Attribute operator*() const;
      iterator& operator++();
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator& o) const { return left_ == o.left_; }

     private:
      friend class AttributeList;
      iterator(const char* p, uint64_t left) : p_(p), left_(left) {}
      const char* p_ = nullptr;  // the next attribute's name size varint
      uint64_t left_ = 0;        // attributes not yet passed
    };

    uint64_t size() const { return count_; }
    iterator begin() const { return {first_, count_}; }
    iterator end() const { return {nullptr, 0}; }
    /// The values of the attribute named `name`, or nullopt.
    std::optional<Values> Find(std::string_view name) const;

   private:
    friend class ItemView;
    AttributeList(const char* first, uint64_t count)
        : first_(first), count_(count) {}
    const char* first_;
    uint64_t count_;
  };

  /// An item with empty keys and no attributes.
  Item() = default;
  /// Encodes `attrs` under the given keys (tests and meta rows).
  Item(std::string hash_key, std::string_view range_key,
       const Attributes& attrs = {});
  /// A copy of the viewed item, which outlives the bytes `view` borrows.
  explicit Item(const ItemView& view);

  std::string hash_key;

  std::string_view range_key() const { return {record_.data(), range_size_}; }
  AttributeList attrs() const;
  /// The attributes copied out into a map.
  Attributes ToAttributes() const;

  /// The encoded record: the range key, then the attributes.
  const std::string& record() const { return record_; }
  /// Billable size: keys plus attribute names and values, in bytes.
  uint64_t SizeBytes() const { return hash_key.size() + payload_bytes_; }
  /// Attribute values (a multi-valued attribute counts once per value).
  uint64_t ValueCount() const { return value_count_; }

  /// Same keys and attributes.
  bool operator==(const Item& o) const {
    return hash_key == o.hash_key && range_size_ == o.range_size_ &&
           record_ == o.record_;
  }

 private:
  friend class ItemBuilder;
  friend class ItemTable;
  friend class ItemView;

  /// A record with no range key and no attributes.
  std::string record_ = std::string(1, '\0');
  uint32_t range_size_ = 0;
  uint32_t value_count_ = 0;
  /// Range key plus attribute name and value bytes.
  uint64_t payload_bytes_ = 0;
};

/// A borrowed item: a view of its hash key and one of its record, with
/// Item's read accessors.  The stores hand reads out as views into their
/// tables (KvStore::BatchGetViews); a view is valid while the bytes it
/// borrows are, and copying it copies two string views.
class ItemView {
 public:
  /// Views `item`, which must outlive the view.
  ItemView(const Item& item)  // NOLINT(runtime/explicit): Items read as views
      : hash_key(item.hash_key),
        record_(item.record_),
        range_size_(item.range_size_),
        value_count_(item.value_count_),
        payload_bytes_(item.payload_bytes_) {}

  std::string_view hash_key;

  std::string_view range_key() const { return record_.substr(0, range_size_); }
  Item::AttributeList attrs() const;
  /// The encoded record: the range key, then the attributes.
  std::string_view record() const { return record_; }
  uint64_t SizeBytes() const { return hash_key.size() + payload_bytes_; }
  uint64_t ValueCount() const { return value_count_; }

  /// Same keys and attributes, as Item's.
  bool operator==(const ItemView& o) const {
    return hash_key == o.hash_key && range_size_ == o.range_size_ &&
           record_ == o.record_;
  }

 private:
  friend class Item;
  friend class ItemTable;
  friend struct PackedItem;

  ItemView(std::string_view hash_key, std::string_view record,
           uint32_t range_size, uint32_t value_count, uint64_t payload_bytes)
      : hash_key(hash_key),
        record_(record),
        range_size_(range_size),
        value_count_(value_count),
        payload_bytes_(payload_bytes) {}

  std::string_view record_;
  uint32_t range_size_ = 0;
  uint32_t value_count_ = 0;
  uint64_t payload_bytes_ = 0;
};

/// Where ItemBuilder packed one item into a shared buffer: its hash key
/// at `offset`, its record right after it (ItemTable's layout).  Offsets,
/// not pointers, so the buffer may grow and move while later items are
/// appended; view the item once it has stopped growing.
struct PackedItem {
  size_t offset = 0;
  uint32_t hash_size = 0;
  uint32_t record_size = 0;
  uint32_t range_size = 0;
  uint32_t value_count = 0;
  uint64_t payload_bytes = 0;

  /// A view of the item in `buffer`, the bytes it was packed into.
  ItemView View(std::string_view buffer) const {
    return {buffer.substr(offset, hash_size),
            buffer.substr(offset + hash_size, record_size), range_size,
            value_count, payload_bytes};
  }
};

/// Writes one item front to back: the range key at construction, then
/// each attribute (ascending name order, each name once) followed by
/// exactly its announced number of values.  It writes into one of two
/// sinks.  An Item of its own: given the record's exact size (the sum of
/// the *Bytes helpers below), the build costs one allocation, plus one
/// for a hash key longer than the string's inline buffer.  Or a caller's
/// buffer, which the hash key and record are appended to: no allocation
/// beyond the buffer's own growth.
class ItemBuilder {
 public:
  /// Builds an Item (Build).
  ItemBuilder(std::string hash_key, std::string_view range_key,
              uint64_t attribute_count, size_t record_bytes = 0);
  /// Appends the item to `*buffer` (Pack).
  ItemBuilder(std::string* buffer, std::string_view hash_key,
              std::string_view range_key, uint64_t attribute_count);

  ItemBuilder(const ItemBuilder&) = delete;
  ItemBuilder& operator=(const ItemBuilder&) = delete;

  void AddAttribute(std::string_view name, uint64_t value_count);
  void AddValue(std::string_view value);
  /// The built item; for the first constructor only.
  Item Build() &&;
  /// Where the item lies in the buffer; for the second constructor only.
  PackedItem Pack() && {
    packed_.record_size = static_cast<uint32_t>(
        out_->size() - packed_.offset - packed_.hash_size);
    return packed_;
  }

  /// Record bytes taken by a range key of `range_size` bytes and
  /// `attribute_count` attributes, before their names and values.
  static size_t HeaderBytes(size_t range_size, uint64_t attribute_count);
  /// Record bytes taken by one attribute's name and value count.
  static size_t AttributeBytes(std::string_view name, uint64_t value_count);
  /// Record bytes taken by one value of `size` bytes.
  static size_t ValueBytes(size_t size);

 private:
  void Start(std::string_view range_key, uint64_t attribute_count);

  Item item_;
  /// The bytes written to: item_'s record or the caller's buffer.
  std::string* out_;
  /// The tallies, and the item's place in the caller's buffer.
  PackedItem packed_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_ITEM_H_
