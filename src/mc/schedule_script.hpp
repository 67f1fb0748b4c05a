// ScheduleScript: a recorded sequence of nondeterministic choices.
//
// Every controlled execution (src/mc/controller.hpp) consumes choice points
// through the sim::NondetSource seam; the (kind, n, pick) triple of each
// consulted point is recorded in order. The resulting script is the
// schedule-space analogue of sim::FaultScript and follows the same
// discipline:
//
//   * replayable — forcing the recorded picks reproduces the execution
//     byte-identically (JSONL traces compare equal);
//   * serializable — {"seed": S, "choices": [{"kind","n","pick"}...]} JSON,
//     derived from the field lists below by obs/json_fields.hpp and written
//     into violation bundles next to the trace;
//   * minimizable — any pick vector is a valid schedule (picks are clamped
//     to the live alternative count, missing picks default to 0), so a
//     greedy minimizer can reset deviations to the default one at a time
//     and keep every reset that preserves the violation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vsgc::mc {

/// One consumed choice point: `pick` of `n` alternatives at a point named
/// `kind`. pick 0 is always the default (uncontrolled) alternative.
struct Choice {
  std::string kind;
  std::uint32_t n = 0;
  std::uint32_t pick = 0;

  bool operator==(const Choice&) const = default;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("kind", s.kind)("n", s.n)("pick", s.pick);
  }
};

struct ScheduleScript {
  std::uint64_t seed = 0;  ///< scenario/world seed it was recorded against
  std::vector<Choice> choices;

  /// The forced-pick vector that replays this script.
  std::vector<std::uint32_t> picks() const;
  /// Number of non-default picks — the schedule's distance from the
  /// uncontrolled execution (what the delay bound counts).
  std::size_t deviations() const;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("seed", s.seed)("choices", s.choices);
  }
};

}  // namespace vsgc::mc
