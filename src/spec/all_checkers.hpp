// The checker bundle: every safety checker of Section 4 plus the membership
// and client specs, wired to a TraceBus in one call. Worlds, integration and
// property tests attach it so any spec violation aborts the run.
//
// A default bundle is exact: attach() subscribes the six checkers directly
// and every violation fires. A bundle built with a tolerance window is the
// eventual-safety variant of "Practically-Self-Stabilizing Virtual Synchrony"
// (PAPERS.md, DESIGN.md §12), for runs that inject state corruption:
//
//   * A FaultInjected event whose kind belongs to the corruption family
//     ("corrupt_*" / "bug_corrupt_*") opens the window until `window` after
//     it. A later "stabilize" marker extends a still-open window (recovery
//     churn is part of the healing the window exists to absorb), but never
//     reopens a closed one.
//   * attach() subscribes the bundle itself, which keeps the event history
//     once and forwards each event to the six checkers in attach order.
//   * A violation inside the window is counted (tolerated()) and only the
//     checker that raised it is rebuilt from the history with violations
//     swallowed, so it tracks the post-recovery state instead of staying
//     wedged on what the corruption invalidated.
//   * vs_rfifo and self judge only events wv_rfifo accepted: a rejected one
//     is not forwarded to them, and their rebuilds skip it. So one bad
//     delivery counts once and shifts no cut or count they judge later.
//   * A violation outside the window propagates unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "spec/client_checker.hpp"
#include "spec/events.hpp"
#include "spec/liveness_checker.hpp"
#include "spec/mbrshp_checker.hpp"
#include "spec/self_checker.hpp"
#include "spec/trans_set_checker.hpp"
#include "spec/vs_rfifo_checker.hpp"
#include "spec/wv_rfifo_checker.hpp"
#include "util/assert.hpp"

namespace vsgc::spec {

class AllCheckers : public TraceSink {
 public:
  explicit AllCheckers(std::optional<sim::Time> window = std::nullopt)
      : window_(window) {}

  MbrshpChecker mbrshp;
  WvRfifoChecker wv_rfifo;
  VsRfifoChecker vs_rfifo;
  TransSetChecker trans_set;
  SelfChecker self;
  ClientChecker client;

  void attach(TraceBus& bus) {
    if (window_) {
      bus.subscribe(*this);
      return;
    }
    bus.subscribe(mbrshp);
    bus.subscribe(wv_rfifo);
    bus.subscribe(vs_rfifo);
    bus.subscribe(trans_set);
    bus.subscribe(self);
    bus.subscribe(client);
  }

  /// End-of-execution checks (prophecy-style properties). View transitions
  /// recorded at or before the tolerance deadline may straddle a tolerated
  /// recovery and are exempt; an exact bundle's deadline is -inf.
  void finalize() const { trans_set.finalize_after(deadline_); }

  /// Violations swallowed inside tolerance windows so far, over all six
  /// checkers (0 for an exact bundle).
  std::uint64_t tolerated() const { return tolerated_; }

 private:
  /// True for the FaultInjected kinds that open a tolerance window: the
  /// recoverable corruption family plus the deliberately unrecoverable
  /// bug-corruption test hooks (those must fire *after* the window).
  static bool is_corruption_kind(std::string_view kind) {
    return kind.starts_with("corrupt_") || kind.starts_with("bug_corrupt_");
  }

  void on_event(const Event& event) override {
    if (const auto* f = std::get_if<FaultInjected>(&event.body)) {
      if (is_corruption_kind(f->kind) ||
          (f->kind == "stabilize" && event.at <= deadline_)) {
        deadline_ = event.at + *window_;
      }
    }
    history_.push_back({event, true});
    forward(mbrshp, event);
    const bool wv_ok = history_.back().wv_ok = forward(wv_rfifo, event);
    if (wv_ok) forward(vs_rfifo, event, /*wv_ok_only=*/true);
    forward(trans_set, event);
    if (wv_ok) forward(self, event, /*wv_ok_only=*/true);
    forward(client, event);
  }

  /// Returns false when `checker` raised a (tolerated) violation.
  template <class Checker>
  bool forward(Checker& checker, const Event& event, bool wv_ok_only = false) {
    try {
      checker.on_event(event);
      return true;
    } catch (const InvariantViolation&) {
      if (event.at > deadline_) throw;
      ++tolerated_;
      checker = Checker();
      for (const Recorded& r : history_) {
        if (wv_ok_only && !r.wv_ok) continue;
        try {
          checker.on_event(r.event);
        } catch (const InvariantViolation&) {
        }
      }
      return false;
    }
  }

  struct Recorded {
    Event event;
    bool wv_ok;  ///< wv_rfifo accepted it
  };

  std::optional<sim::Time> window_;
  sim::Time deadline_ = std::numeric_limits<sim::Time>::min();
  std::uint64_t tolerated_ = 0;
  std::vector<Recorded> history_;
};

}  // namespace vsgc::spec
