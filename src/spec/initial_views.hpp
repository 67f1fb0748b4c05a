// The paper's initial view v_p of each process, built once and shared.
//
// WV_RFIFO, VS_RFIFO and TRANS_SET each track every process's current view,
// which starts, and restarts at every recover_p (Section 8), as v_p =
// <vid0, {p}, {(p -> cid0)}>. A checker reads v_p from an InitialViews
// table; AllCheckers hands its three checkers one table, so v_p is built
// once per process for the bundle, not once per checker and per recovery.
#pragma once

#include <map>

#include "membership/view.hpp"
#include "util/ids.hpp"

namespace vsgc::spec {

class InitialViews {
 public:
  /// v_p; every call for p returns a view that shares one body.
  const View& of(ProcessId p) {
    auto [it, fresh] = views_.try_emplace(p);
    if (fresh) it->second = View::initial(p);
    return it->second;
  }

 private:
  std::map<ProcessId, View> views_;
};

}  // namespace vsgc::spec
