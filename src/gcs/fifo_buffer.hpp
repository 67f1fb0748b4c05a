// Sparse 1-based FIFO buffer for per-(sender, view) application messages
// (the msgs[q][v] sequences of Figure 9).
//
// Entries can arrive out of order through forwarding (fwd_msg), so the buffer
// is sparse; longest_prefix() is the paper's LongestPrefixOf — the index of
// the last message in the gap-free prefix.
#pragma once

#include <cstdint>
#include <map>

#include "gcs/app_msg.hpp"

namespace vsgc::gcs {

class FifoBuffer {
 public:
  /// Insert message at 1-based index i (idempotent: re-inserting the same
  /// index is a no-op that copies nothing, which is what makes duplicate
  /// forwards harmless).
  void put(std::int64_t i, const AppMsg& msg) {
    if (!entries_.try_emplace(i, msg).second) return;
    while (entries_.contains(prefix_ + 1)) ++prefix_;
  }

  /// Append at the end of the contiguous prefix; returns the index used.
  std::int64_t append(const AppMsg& msg) {
    const std::int64_t i = prefix_ + 1;
    put(i, msg);
    return i;
  }

  const AppMsg* get(std::int64_t i) const {
    auto it = entries_.find(i);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// LongestPrefixOf: last index of the gap-free prefix (0 if empty).
  std::int64_t longest_prefix() const { return prefix_; }

  /// LastIndexOf: largest index present (0 if empty).
  std::int64_t last_index() const {
    return entries_.empty() ? 0 : entries_.rbegin()->first;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::int64_t, AppMsg> entries_;
  std::int64_t prefix_ = 0;
};

}  // namespace vsgc::gcs
