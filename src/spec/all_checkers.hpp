// The checker bundle: every safety checker of Section 4 plus the membership
// and client specs, wired to a TraceBus in one call. Worlds, integration and
// property tests attach it so any spec violation aborts the run.
//
// attach() subscribes the bundle as one sink; it forwards each event to the
// six checkers in a fixed order (MBRSHP, WV_RFIFO, VS_RFIFO, TRANS_SET,
// SELF, CLIENT). Each checker tests a step's precondition before its effect,
// as an I/O automaton does, so a rejected event leaves that checker as it
// was (DESIGN.md §12.2).
//
// A default bundle is exact: every violation propagates unchanged. A bundle
// built with a tolerance window is the eventual-safety variant of
// "Practically-Self-Stabilizing Virtual Synchrony" (PAPERS.md, DESIGN.md
// §12), for runs that inject state corruption:
//
//   * A FaultInjected event whose kind belongs to the corruption family
//     ("corrupt_*" / "bug_corrupt_*") opens the window until `window` after
//     it. A later "stabilize" marker extends a still-open window (recovery
//     churn is part of the healing the window exists to absorb), but never
//     reopens a closed one.
//   * A violation inside the window is counted (tolerated()) and the event
//     is dropped for the checker that raised it.
//   * vs_rfifo and self judge only events wv_rfifo accepted: a rejected one
//     is not forwarded to them. So one bad delivery counts once and shifts
//     no cut or count they judge later.
//   * A violation outside the window propagates unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>

#include "sim/time.hpp"
#include "spec/client_checker.hpp"
#include "spec/events.hpp"
#include "spec/initial_views.hpp"
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

 private:
  /// Each process's initial view, built once for the three checkers below
  /// that track current views.
  std::shared_ptr<InitialViews> initial_ = std::make_shared<InitialViews>();

 public:
  MbrshpChecker mbrshp;
  WvRfifoChecker wv_rfifo{initial_};
  VsRfifoChecker vs_rfifo{initial_};
  TransSetChecker trans_set{initial_};
  SelfChecker self;
  ClientChecker client;

  void attach(TraceBus& bus) { bus.subscribe(*this); }

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
    const auto* f = std::get_if<FaultInjected>(&event.body);
    if (window_ && f != nullptr &&
        (is_corruption_kind(f->kind) ||
         (f->kind == "stabilize" && event.at <= deadline_))) {
      deadline_ = event.at + *window_;
    }
    forward(mbrshp, event);
    const bool wv_ok = forward(wv_rfifo, event);
    if (wv_ok) forward(vs_rfifo, event);
    forward(trans_set, event);
    if (wv_ok) forward(self, event);
    forward(client, event);
  }

  /// Returns false when `checker` rejected the event inside the window.
  template <class Checker>
  bool forward(Checker& checker, const Event& event) {
    try {
      checker.on_event(event);
      return true;
    } catch (const InvariantViolation&) {
      if (event.at > deadline_) throw;
      ++tolerated_;
      return false;
    }
  }

  std::optional<sim::Time> window_;
  sim::Time deadline_ = std::numeric_limits<sim::Time>::min();
  std::uint64_t tolerated_ = 0;
};

}  // namespace vsgc::spec
