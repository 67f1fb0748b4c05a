// Runtime checker for WV_RFIFO : SPEC (paper Figure 4).
//
// Maintains the specification automaton's state — centralized per-(sender,
// view) message queues, per-pair delivery counters, per-process current
// views — and asserts every GcsSend / GcsDeliver / GcsView event is a legal
// step:
//   * deliver_p(q, m): m is exactly msgs[q][current_view[p]] at index
//     last_dlvrd[q][p] + 1 (within-view, gap-free, FIFO, sent-view delivery);
//   * view_p(v): p ∈ v.set and v.id > current_view[p].id.
//
// Each check runs before its effect, so a rejected event changes nothing:
// the state is a function of the events this checker accepted.
//
// VS_RFIFO:SPEC and SELF:SPEC are this automaton plus one extra view
// precondition each. VsRfifoChecker and SelfChecker check only that
// precondition, each over the events this checker accepted; AllCheckers
// runs the three side by side (DESIGN.md §12.2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "gcs/app_msg.hpp"
#include "membership/view.hpp"
#include "spec/events.hpp"
#include "spec/initial_views.hpp"
#include "util/assert.hpp"

namespace vsgc::spec {

class WvRfifoChecker : public TraceSink {
 public:
  /// Reads initial views from `initial`, or from a table of its own.
  explicit WvRfifoChecker(std::shared_ptr<InitialViews> initial = nullptr)
      : initial_(initial ? std::move(initial)
                         : std::make_shared<InitialViews>()) {}

  void on_event(const Event& event) override {
    if (const auto* s = std::get_if<GcsSend>(&event.body)) {
      msgs_[s->p][current_view(s->p)].push_back(s->msg);
    } else if (const auto* d = std::get_if<GcsDeliver>(&event.body)) {
      check_deliver(*d);
      ++last_dlvrd_[d->q][d->p];
    } else if (const auto* v = std::get_if<GcsView>(&event.body)) {
      check_view(*v);
      for (auto& [q, per_receiver] : last_dlvrd_) per_receiver[v->p] = 0;
      last_dlvrd_[v->p][v->p] = 0;
      current_view_.insert_or_assign(v->p, v->view);
    } else if (const auto* r = std::get_if<Recover>(&event.body)) {
      recover(r->p);
    }
  }

 private:
  const View& current_view(ProcessId p) {
    auto it = current_view_.find(p);
    if (it == current_view_.end()) {
      it = current_view_.emplace(p, initial_->of(p)).first;
    }
    return it->second;
  }

  void check_deliver(const GcsDeliver& e) {
    const View& cv = current_view(e.p);
    const auto& queue = msgs_[e.q][cv];
    const std::int64_t next = last_dlvrd_[e.q][e.p] + 1;
    VSGC_REQUIRE(static_cast<std::size_t>(next) <= queue.size(),
                 "WV_RFIFO: " << to_string(e.p) << " delivered from "
                              << to_string(e.q) << " message index " << next
                              << " that was never sent in view "
                              << to_string(cv));
    VSGC_REQUIRE(queue[static_cast<std::size_t>(next - 1)] == e.msg,
                 "WV_RFIFO: delivery mismatch at "
                     << to_string(e.p) << " from " << to_string(e.q)
                     << " index " << next << " (uid " << e.msg.uid << ")");
  }

  void check_view(const GcsView& e) {
    const View& cv = current_view(e.p);
    VSGC_REQUIRE(e.view.contains(e.p),
                 "WV_RFIFO: Self Inclusion violated at " << to_string(e.p));
    VSGC_REQUIRE(cv.id < e.view.id, "WV_RFIFO: Local Monotonicity violated at "
                                        << to_string(e.p) << ": "
                                        << to_string(e.view.id));
    VSGC_REQUIRE(monotonicity_floor_[e.p] < e.view.id,
                 "WV_RFIFO: view id regressed across recovery at "
                     << to_string(e.p));
  }

  void recover(ProcessId p) {
    // Section 8: the algorithm restarts from initial state, but the spec
    // preserves identifier floors for Local Monotonicity; the recovered
    // process's own initial-view queue restarts empty.
    auto& floor = monotonicity_floor_[p];
    const ViewId old = current_view(p).id;
    if (floor < old) floor = old;
    const View& initial = initial_->of(p);
    current_view_.insert_or_assign(p, initial);
    msgs_[p][initial].clear();
    for (auto& [q, per_receiver] : last_dlvrd_) per_receiver[p] = 0;
  }

  std::shared_ptr<InitialViews> initial_;
  /// msgs[q][v]: the sequence of messages q's application sent in view v.
  std::map<ProcessId, std::map<View, std::vector<gcs::AppMsg>>> msgs_;
  /// last_dlvrd[q][p]: index of the last message from q delivered to p.
  std::map<ProcessId, std::map<ProcessId, std::int64_t>> last_dlvrd_;
  std::map<ProcessId, View> current_view_;
  std::map<ProcessId, ViewId> monotonicity_floor_;
};

}  // namespace vsgc::spec
