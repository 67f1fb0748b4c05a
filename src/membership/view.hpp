// Views, as defined in Figure 2 of the paper:
//   View : ViewId x SetOf(Proc) x (Proc -> StartChangeId)
//
// The startId component maps each member to the identifier of the last
// start_change that member received before receiving the view. Two views are
// the same iff all three components are identical — this is what lets the
// virtual synchrony algorithm skip pre-agreement on a global identifier.
//
// A View is an immutable value (DESIGN.md §11.5): the id is a plain field,
// and the member set and startId map live in one refcounted body that every
// copy shares. Copying, storing or sending a view bumps a refcount and never
// copies a tree; a forged view is a copy with another id.
#pragma once

#include <compare>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "util/ids.hpp"

namespace vsgc {

struct View {
  ViewId id{};

  /// The empty view: id zero, no members.
  View() = default;
  View(ViewId vid, std::set<ProcessId> members,
       std::map<ProcessId, StartChangeId> start_id)
      : id(vid),
        body_(std::make_shared<const Body>(
            Body{std::move(members), std::move(start_id)})) {}

  /// The paper's initial view v_p = <vid0, {p}, {(p -> cid0)}>.
  static View initial(ProcessId p) {
    return View(ViewId::zero(), {p}, {{p, StartChangeId::zero()}});
  }

  const std::set<ProcessId>& members() const {
    return body_ ? body_->members : empty().members;
  }
  const std::map<ProcessId, StartChangeId>& start_id() const {
    return body_ ? body_->start_id : empty().start_id;
  }

  bool contains(ProcessId p) const { return members().contains(p); }

  /// startId(p); requires p to be a member.
  StartChangeId start_id_of(ProcessId p) const {
    auto it = start_id().find(p);
    return it == start_id().end() ? StartChangeId::zero() : it->second;
  }

  /// True when both views hold one body (a view and its copies do).
  bool shares_body_with(const View& o) const { return body_ == o.body_; }
  /// How many views hold this one's body; 0 for the empty view.
  long body_use_count() const { return body_.use_count(); }

  // Two views are the same iff all three components are identical (paper
  // Section 3.1). The ordering is lexicographic — id, members, startId —
  // used only for map keys. Views that share a body compare by id alone.
  friend bool operator==(const View& a, const View& b) {
    return a.id == b.id &&
           (a.body_ == b.body_ ||
            (a.members() == b.members() && a.start_id() == b.start_id()));
  }
  friend std::strong_ordering operator<=>(const View& a, const View& b) {
    if (const auto c = a.id <=> b.id; c != 0) return c;
    if (a.body_ == b.body_) return std::strong_ordering::equal;
    if (const auto c = a.members() <=> b.members(); c != 0) return c;
    return a.start_id() <=> b.start_id();
  }

  template <class S, class V>
  static void fields(S& s, V& v) {
    with_parts(s, [&v](auto& id, auto& members, auto& start_id) {
      v(id, members, start_id);
    });
  }

  /// JSON form: the view id flattened into epoch/origin, start_id as an
  /// object keyed by decimal pid.
  template <class S, class V>
  static void json_fields(S& s, V& v) {
    with_parts(s, [&v](auto& id, auto& members, auto& start_id) {
      v("epoch", id.epoch)("origin", id.origin)("members", members)
       ("start_id", start_id);
    });
  }

 private:
  struct Body {
    std::set<ProcessId> members{};
    std::map<ProcessId, StartChangeId> start_id{};
  };

  static const Body& empty() {
    static const Body kEmpty;
    return kEmpty;
  }

  /// Hands f the three parts. A writer (const S) sees the view's own; a
  /// reader fills fresh ones, from which the view is then built.
  template <class S, class F>
  static void with_parts(S& s, F&& f) {
    if constexpr (std::is_const_v<S>) {
      f(s.id, s.members(), s.start_id());
    } else {
      ViewId id{};
      std::set<ProcessId> members;
      std::map<ProcessId, StartChangeId> start_id;
      f(id, members, start_id);
      s = View(id, std::move(members), std::move(start_id));
    }
  }

  std::shared_ptr<const Body> body_{};
};

std::string to_string(const View& v);

}  // namespace vsgc
