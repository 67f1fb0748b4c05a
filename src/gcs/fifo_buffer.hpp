// 1-based FIFO buffer for per-(sender, view) application messages (the
// msgs[q][v] sequences of Figure 9).
//
// Delivery reads only the gap-free prefix — longest_prefix() is the paper's
// LongestPrefixOf — so the prefix is a dense vector indexed by i - 1 and
// get() on it is O(1). Entries can also arrive out of order through
// forwarding (fwd_msg); one past a gap waits in an ordered tail and drains
// into the prefix once the gap closes. A vector, not a deque: a deque
// allocates on construction. An end-point reuses the buffer of a dead view
// for the next one (clear()), so a view change allocates no buffer
// (DESIGN.md §11.5).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "gcs/app_msg.hpp"

namespace vsgc::gcs {

class FifoBuffer {
 public:
  /// Insert message at 1-based index i (idempotent: re-inserting a held
  /// index, or any index below 1, is a no-op that copies nothing, which is
  /// what makes duplicate forwards harmless).
  void put(std::int64_t i, const AppMsg& msg) {
    if (i <= longest_prefix()) return;
    if (i > longest_prefix() + 1) {
      tail_.try_emplace(i, msg);
      return;
    }
    prefix_.push_back(msg);
    while (!tail_.empty() && tail_.begin()->first == longest_prefix() + 1) {
      prefix_.push_back(std::move(tail_.begin()->second));
      tail_.erase(tail_.begin());
    }
  }

  /// Append at the end of the contiguous prefix; returns the index used.
  std::int64_t append(const AppMsg& msg) {
    const std::int64_t i = longest_prefix() + 1;
    put(i, msg);
    return i;
  }

  /// The message at index i, or nullptr. The pointer is valid until the
  /// next put(): a put can move the prefix.
  const AppMsg* get(std::int64_t i) const {
    if (i >= 1 && i <= longest_prefix()) {
      return &prefix_[static_cast<std::size_t>(i - 1)];
    }
    auto it = tail_.find(i);
    return it == tail_.end() ? nullptr : &it->second;
  }

  /// LongestPrefixOf: last index of the gap-free prefix (0 if empty).
  std::int64_t longest_prefix() const {
    return static_cast<std::int64_t>(prefix_.size());
  }

  /// LastIndexOf: largest index present (0 if empty).
  std::int64_t last_index() const {
    return tail_.empty() ? longest_prefix() : tail_.rbegin()->first;
  }

  std::size_t size() const { return prefix_.size() + tail_.size(); }

  /// Empty again, as a new buffer, for reuse by another view: drops every
  /// message (and so its payload reference) but keeps the prefix's
  /// capacity.
  void clear() {
    prefix_.clear();
    tail_.clear();
  }

 private:
  std::vector<AppMsg> prefix_;           ///< indices 1..prefix_.size()
  std::map<std::int64_t, AppMsg> tail_;  ///< indices past the first gap
};

}  // namespace vsgc::gcs
