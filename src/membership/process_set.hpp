// The set a start_change carries (paper Figure 2: start_change_p(cid, set)).
//
// A ProcessSet is an immutable value like View (DESIGN.md §11.5): the set
// lives in one refcounted body that every copy shares. A membership server
// builds its estimate once per round, and every local client's StartChange,
// the server's record of it, the Listener upcall, the VS end-point's
// start_change and the MbrStartChange event hold that one body, so handing
// the set on bumps a refcount and never copies a tree.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "util/ids.hpp"

namespace vsgc {

class ProcessSet {
 public:
  /// The empty set: no body.
  ProcessSet() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a plain set converts.
  ProcessSet(std::set<ProcessId> set)
      : body_(set.empty() ? nullptr
                          : std::make_shared<const std::set<ProcessId>>(
                                std::move(set))) {}
  ProcessSet(std::initializer_list<ProcessId> members)
      : ProcessSet(std::set<ProcessId>(members)) {}

  const std::set<ProcessId>& get() const { return body_ ? *body_ : none(); }
  auto begin() const { return get().begin(); }
  auto end() const { return get().end(); }
  std::size_t size() const { return get().size(); }
  bool empty() const { return body_ == nullptr; }
  bool contains(ProcessId p) const { return get().contains(p); }

  /// True when both sets hold one body (a set and its copies do).
  bool shares_body_with(const ProcessSet& o) const { return body_ == o.body_; }
  /// How many sets hold this one's body; 0 for the empty set.
  long body_use_count() const { return body_.use_count(); }

  /// Member-wise; sets that share a body skip the walk.
  friend bool operator==(const ProcessSet& a, const ProcessSet& b) {
    return a.body_ == b.body_ || a.get() == b.get();
  }

  /// Hands f the plain set inside `s`, for the codec and JSON field lists
  /// of the structs that hold one: a writer (const S) sees the shared body,
  /// so the bytes are those of the plain std::set; a reader fills a fresh
  /// set, from which `s` is then built.
  template <class S, class F>
  static void with_plain(S& s, F&& f) {
    if constexpr (std::is_const_v<S>) {
      f(s.get());
    } else {
      std::set<ProcessId> plain;
      f(plain);
      s = ProcessSet(std::move(plain));
    }
  }

 private:
  static const std::set<ProcessId>& none() {
    static const std::set<ProcessId> kEmpty;
    return kEmpty;
  }

  std::shared_ptr<const std::set<ProcessId>> body_{};
};

}  // namespace vsgc
