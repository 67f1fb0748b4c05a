// Views, as defined in Figure 2 of the paper:
//   View : ViewId x SetOf(Proc) x (Proc -> StartChangeId)
//
// The startId component maps each member to the identifier of the last
// start_change that member received before receiving the view. Two views are
// the same iff all three components are identical — this is what lets the
// virtual synchrony algorithm skip pre-agreement on a global identifier.
//
// A View is an immutable value (DESIGN.md §11.5): the id is a plain field,
// and the startId map sits in one flat refcounted body of (member, cid)
// pairs, ascending by member, with the member set (a ProcessSet) beside it.
// Building a view costs two allocations however many members it has;
// copying, storing or sending one bumps two refcounts and never copies; a
// forged view is a copy with another id.
#pragma once

#include <algorithm>
#include <compare>
#include <map>
#include <ranges>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "membership/process_set.hpp"
#include "util/ids.hpp"
#include "util/serialization.hpp"
#include "util/shared_array.hpp"

namespace vsgc {

struct View {
  /// (member, startId(member)) for every member, ascending by member.
  using StartIds = util::SharedArray<std::pair<ProcessId, StartChangeId>>;

  ViewId id{};

  /// The empty view: id zero, no members.
  View() = default;
  /// The view whose members are the pids of `start_id`, which must ascend
  /// without duplicates: the flat form every builder of a view writes.
  View(ViewId vid, StartIds start_id)
      : id(vid),
        members_(ProcessSet::Ids::build(start_id.size(),
                                        [&](ProcessId* out) {
                                          for (const auto& [p, cid] : start_id) {
                                            *out++ = p;
                                          }
                                        })),
        start_id_(std::move(start_id)) {}
  /// The view with members keys(start_id).
  View(ViewId vid, const std::map<ProcessId, StartChangeId>& start_id)
      : View(vid, StartIds(start_id.begin(), start_id.end())) {}
  /// From plain parts: every one of `members`, with the cid `start_id`
  /// gives it (cid0 if none); other keys of `start_id` are ignored.
  View(ViewId vid, const ProcessSet& members,
       const std::map<ProcessId, StartChangeId>& start_id)
      : View(vid, StartIds::build(members.size(), [&](auto* out) {
               for (ProcessId p : members) {
                 const auto it = start_id.find(p);
                 *out++ = {p, it == start_id.end() ? StartChangeId::zero()
                                                   : it->second};
               }
             })) {}

  /// The paper's initial view v_p = <vid0, {p}, {(p -> cid0)}>.
  static View initial(ProcessId p) {
    return View(ViewId::zero(), StartIds{{p, StartChangeId::zero()}});
  }

  const ProcessSet& members() const { return members_; }
  const StartIds& start_id() const { return start_id_; }

  bool contains(ProcessId p) const { return members_.contains(p); }

  /// startId(p); cid0 for a process outside the view.
  StartChangeId start_id_of(ProcessId p) const {
    auto it = std::lower_bound(
        start_id_.begin(), start_id_.end(), p,
        [](const auto& entry, ProcessId q) { return entry.first < q; });
    return it == start_id_.end() || it->first != p ? StartChangeId::zero()
                                                   : it->second;
  }

  /// True when both views hold one body (a view and its copies do).
  bool shares_body_with(const View& o) const {
    return start_id_.shares_body_with(o.start_id_);
  }
  /// How many views hold this one's body; 0 for the empty view.
  long body_use_count() const { return start_id_.use_count(); }

  // Two views are the same iff all three components are identical (paper
  // Section 3.1); the members are the start ids' keys, so comparing those
  // compares both. The ordering is lexicographic — id, members, startId —
  // used only for map keys. Views that share a body compare by id alone.
  friend bool operator==(const View& a, const View& b) {
    return a.id == b.id && a.start_id_ == b.start_id_;
  }
  friend std::strong_ordering operator<=>(const View& a, const View& b) {
    if (const auto c = a.id <=> b.id; c != 0) return c;
    if (a.shares_body_with(b)) return std::strong_ordering::equal;
    if (const auto c = a.members_ <=> b.members_; c != 0) return c;
    return a.start_id_ <=> b.start_id_;
  }

  /// Wire form: the id, the member set and the startId map, each encoded as
  /// the plain container. A decoded startId map must name exactly the
  /// members, so a decoded view re-encodes to the bytes it came from.
  template <class S, class V>
  static void fields(S& s, V& v) {
    with_parts(s, [&v](auto& id, auto& members, auto& start_id) {
      v(id, members, start_id);
      if constexpr (!std::is_const_v<S>) {
        if (!std::ranges::equal(members, start_id | std::views::keys)) {
          throw DecodeError("view start ids must name exactly its members");
        }
      }
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
  /// Hands f the three parts. A writer (const S) sees the view's own flat
  /// bodies; a reader fills a plain set and map, from which the view is
  /// then built.
  template <class S, class F>
  static void with_parts(S& s, F&& f) {
    if constexpr (std::is_const_v<S>) {
      f(s.id, s.members_.ids(), s.start_id_);
    } else {
      ViewId id{};
      std::set<ProcessId> members;
      std::map<ProcessId, StartChangeId> start_id;
      f(id, members, start_id);
      s = View(id, members, start_id);
    }
  }

  ProcessSet members_{};
  StartIds start_id_{};
};

std::string to_string(const View& v);

}  // namespace vsgc
