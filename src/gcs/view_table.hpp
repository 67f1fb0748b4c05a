// Interned views (DESIGN.md §11.5): an end-point keeps one body per distinct
// view it holds, so equal views it holds share a body and comparing two of
// them is a pointer compare plus an id compare.
//
// intern() compares by value, never by ViewId alone: a corrupted peer can
// announce a forged view under an id the table already holds. So equal
// views from one table always share one body.
#pragma once

#include <map>

#include "membership/view.hpp"

namespace vsgc::gcs {

class ViewTable {
 public:
  /// The table's view equal to `v`; a new view is stored as given, body and
  /// all. Adding a new view first drops every view whose body only the table
  /// still holds, so the table never holds more than the live views plus
  /// the one added.
  View intern(const View& v) {
    auto [lo, hi] = views_.equal_range(v.id);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == v) return it->second;
    }
    std::erase_if(views_,
                  [](const auto& e) { return e.second.body_use_count() == 1; });
    return views_.emplace(v.id, v)->second;
  }

 private:
  std::multimap<ViewId, View> views_;
};

}  // namespace vsgc::gcs
