// FlatTable: per-peer state in one dense vector behind an open-addressed
// index.
//
// The transport keeps one record per peer and the network one per node and
// per directed link (DESIGN.md §11.6). Every packet and every timer looks its
// record up, so a tree walk per lookup (std::map) was a large share of a
// packet's cost. Here the entries sit densely in insertion order in one
// vector, and a power-of-two index of `slot + 1` words (0 = empty) finds
// them: Fibonacci hashing (one multiply, top bits) picks the home word,
// linear probing resolves collisions, and the load stays at most 1/2, so a
// lookup is about one probe. This is the simulator's when -> bucket map
// (DESIGN.md §9.2) without single-key deletion: records are only appended,
// bulk-erased by erase_if, or dropped all at once by clear().
//
// Slots are stable until erase_if or clear(); references are not: an insert
// that grows the table moves every entry. So code that makes an upcall
// (which may insert) keeps the slot across it and re-reads the entry after.
// Memory follows the records in use — capacity at most twice the size, at
// least kMinCapacity once anything is stored, nothing before — never the
// largest key.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace vsgc::util {

template <typename Key, typename T, typename Hash = std::hash<Key>>
class FlatTable {
 public:
  struct Entry {
    Key key;
    T value;
  };
  // A growing vector moves its entries only if that cannot throw; otherwise
  // it copies them.
  static_assert(std::is_nothrow_move_constructible_v<Entry>);

  using Slot = std::uint32_t;
  static constexpr Slot kNone = ~Slot{0};
  /// Entries reserved on the first insert (the index gets twice as many words).
  static constexpr std::size_t kMinCapacity = 8;

  std::size_t size() const { return entries_.size(); }

  /// Slot of `key`, or kNone.
  Slot find(const Key& key) const {
    if (index_.empty()) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & (index_.size() - 1)) {
      const std::uint32_t word = index_[i];
      if (word == 0) return kNone;
      if (entries_[word - 1].key == key) return word - 1;
    }
  }

  /// Slot of `key`, appending a value-initialised entry if it is absent.
  Slot insert(const Key& key) {
    if (const Slot s = find(key); s != kNone) return s;
    if ((entries_.size() + 1) * 2 > index_.size()) grow();
    const auto s = static_cast<Slot>(entries_.size());
    entries_.push_back(Entry{key, T{}});
    place(s);
    return s;
  }

  /// The value under `key`, inserted if absent (std::map::operator[]).
  T& operator[](const Key& key) { return entries_[insert(key)].value; }

  T& at(Slot s) { return entries_[s].value; }
  const T& at(Slot s) const { return entries_[s].value; }
  const Key& key(Slot s) const { return entries_[s].key; }

  /// Drops every entry `pred(entry)` selects and re-indexes the rest: O(size).
  /// The survivors keep their insertion order but may change slots.
  template <typename Pred>
  void erase_if(Pred pred) {
    if (std::erase_if(entries_, pred) == 0) return;
    std::fill(index_.begin(), index_.end(), 0u);
    for (Slot s = 0; s < entries_.size(); ++s) place(s);
  }

  /// Drops every entry and releases the memory.
  void clear() {
    std::vector<Entry>().swap(entries_);
    std::vector<std::uint32_t>().swap(index_);
  }

  /// Heap held: the entries' capacity plus the index.
  std::size_t capacity_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           index_.capacity() * sizeof(std::uint32_t);
  }

  /// Insertion order, not key order.
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::size_t home(const Key& key) const {
    const auto h = static_cast<std::uint64_t>(Hash{}(key));
    return static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void place(Slot s) {
    std::size_t i = home(entries_[s].key);
    while (index_[i] != 0) i = (i + 1) & (index_.size() - 1);
    index_[i] = s + 1;
  }

  void grow() {
    const std::size_t words =
        index_.empty() ? 2 * kMinCapacity : 2 * index_.size();
    entries_.reserve(words / 2);
    index_.assign(words, 0u);
    shift_ = 64;
    for (std::size_t w = words; w > 1; w >>= 1) --shift_;
    for (Slot s = 0; s < entries_.size(); ++s) place(s);
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;
  int shift_ = 64;  ///< 64 - log2(index_.size())
};

}  // namespace vsgc::util
