// Interned views (DESIGN.md §11.5): an end-point keeps one shared immutable
// copy of each distinct view it holds, so storing a view is a refcount bump
// and comparing two held views is a pointer compare.
//
// intern() compares by value, never by ViewId alone: a corrupted peer can
// announce a forged view under an id the table already holds. So two
// handles from one table are equal iff the views they point to are equal.
#pragma once

#include <map>
#include <memory>

#include "membership/view.hpp"

namespace vsgc::gcs {

using ViewRef = std::shared_ptr<const View>;

class ViewTable {
 public:
  /// The table's handle for a view equal to `v`. Adding a new view first
  /// drops every view only the table still holds, so the table never holds
  /// more than the live handles plus the one added.
  ViewRef intern(const View& v) {
    auto [lo, hi] = views_.equal_range(v.id);
    for (auto it = lo; it != hi; ++it) {
      if (*it->second == v) return it->second;
    }
    std::erase_if(views_,
                  [](const auto& e) { return e.second.use_count() == 1; });
    return views_.emplace(v.id, std::make_shared<const View>(v))->second;
  }

 private:
  std::multimap<ViewId, ViewRef> views_;
};

}  // namespace vsgc::gcs
