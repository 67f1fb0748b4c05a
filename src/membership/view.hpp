// Views, as defined in Figure 2 of the paper:
//   View : ViewId x SetOf(Proc) x (Proc -> StartChangeId)
//
// The startId component maps each member to the identifier of the last
// start_change that member received before receiving the view. Two views are
// the same iff all three components are identical — this is what lets the
// virtual synchrony algorithm skip pre-agreement on a global identifier.
#pragma once

#include <map>
#include <set>
#include <string>

#include "util/ids.hpp"

namespace vsgc {

struct View {
  ViewId id{};
  std::set<ProcessId> members{};
  std::map<ProcessId, StartChangeId> start_id{};

  /// The paper's initial view v_p = <vid0, {p}, {(p -> cid0)}>.
  static View initial(ProcessId p) {
    View v;
    v.id = ViewId::zero();
    v.members = {p};
    v.start_id = {{p, StartChangeId::zero()}};
    return v;
  }

  bool contains(ProcessId p) const { return members.contains(p); }

  /// startId(p); requires p to be a member.
  StartChangeId start_id_of(ProcessId p) const {
    auto it = start_id.find(p);
    return it == start_id.end() ? StartChangeId::zero() : it->second;
  }

  // Two views are the same iff all three components are identical (paper
  // Section 3.1). The ordering is lexicographic, used only for map keys.
  friend bool operator==(const View&, const View&) = default;
  friend auto operator<=>(const View&, const View&) = default;

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.id, s.members, s.start_id);
  }

  /// JSON form: the view id flattened into epoch/origin, start_id as an
  /// object keyed by decimal pid.
  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("epoch", s.id.epoch)("origin", s.id.origin)("members", s.members)
     ("start_id", s.start_id);
  }
};

std::string to_string(const View& v);

}  // namespace vsgc
