// The set a start_change carries (paper Figure 2: start_change_p(cid, set)),
// a view's member set, and a transitional set.
//
// A ProcessSet is an immutable value like View (DESIGN.md §11.5): its ids
// sit ascending in one flat refcounted body (util::SharedArray) that every
// copy shares. A membership server builds its estimate once per round, and
// every local client's StartChange, the server's record of it, the Listener
// upcall, the VS end-point's start_change and the MbrStartChange event hold
// that one body, so handing the set on bumps a refcount and never copies.
// Iteration is ascending, as a std::set's; contains() is a binary search.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <set>
#include <type_traits>
#include <utility>

#include "util/ids.hpp"
#include "util/shared_array.hpp"

namespace vsgc {

class ProcessSet {
 public:
  using Ids = util::SharedArray<ProcessId>;

  /// The empty set: no body.
  ProcessSet() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a plain set converts.
  ProcessSet(const std::set<ProcessId>& set) : ids_(set.begin(), set.end()) {}
  ProcessSet(std::initializer_list<ProcessId> members)
      : ProcessSet(std::set<ProcessId>(members)) {}
  /// Takes `ids` as the body; they must ascend without duplicates.
  explicit ProcessSet(Ids ids) : ids_(std::move(ids)) {}

  /// The flat body, ascending.
  const Ids& ids() const { return ids_; }
  const ProcessId* begin() const { return ids_.begin(); }
  const ProcessId* end() const { return ids_.end(); }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  bool contains(ProcessId p) const {
    return std::binary_search(begin(), end(), p);
  }

  /// True when both sets hold one body (a set and its copies do).
  bool shares_body_with(const ProcessSet& o) const {
    return ids_.shares_body_with(o.ids_);
  }
  /// How many sets hold this one's body; 0 for the empty set.
  long body_use_count() const { return ids_.use_count(); }

  /// Member-wise, as std::set compares; sets that share a body skip the
  /// walk.
  friend bool operator==(const ProcessSet& a, const ProcessSet& b) {
    return a.ids_ == b.ids_;
  }
  friend std::strong_ordering operator<=>(const ProcessSet& a,
                                          const ProcessSet& b) {
    return a.ids_ <=> b.ids_;
  }

  /// Hands f the set inside `s`, for the codec and JSON field lists of the
  /// structs that hold one: a writer (const S) sees the flat body, whose
  /// bytes and JSON are those of the plain std::set; a reader fills a fresh
  /// std::set (which checks the wire's ascending order), from which `s` is
  /// then built.
  template <class S, class F>
  static void with_plain(S& s, F&& f) {
    if constexpr (std::is_const_v<S>) {
      f(s.ids());
    } else {
      std::set<ProcessId> plain;
      f(plain);
      s = ProcessSet(plain);
    }
  }

 private:
  Ids ids_{};
};

}  // namespace vsgc
