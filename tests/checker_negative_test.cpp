// Negative self-tests for the full checker bundle: every checker wired to a
// TraceBus through spec::AllCheckers must fire on a planted violation inside
// an otherwise-legal event stream. spec_checker_test.cpp exercises checkers
// in isolation; these tests prove the *deployed* wiring (the one Worlds,
// the fuzzer, and the model checker rely on) catches each violation class —
// a vacuous or mis-subscribed checker would pass every integration test
// silently.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "spec/all_checkers.hpp"
#include "spec/co_rfifo_checker.hpp"
#include "spec/liveness_checker.hpp"
#include "util/assert.hpp"

namespace vsgc::spec {
namespace {

const ProcessId kP1{1};
const ProcessId kP2{2};

View make_view(std::uint64_t epoch, std::set<ProcessId> members,
               std::uint64_t cid = 1) {
  std::map<ProcessId, StartChangeId> start_id;
  for (ProcessId p : members) start_id[p] = StartChangeId{cid};
  return View(ViewId{epoch, 0}, std::move(members), std::move(start_id));
}

gcs::AppMsg msg(ProcessId sender, std::uint64_t uid) {
  return gcs::AppMsg{sender, uid, "m" + std::to_string(uid)};
}

/// A bus with the full production bundle attached, as Worlds wire it.
struct Bundle {
  Bundle() {
    bus.set_recording(true);
    checkers.attach(bus);
  }
  void emit(EventBody body) { bus.emit(++t, std::move(body)); }

  TraceBus bus;
  AllCheckers checkers;
  sim::Time t = 0;
};

/// Runs `fn`; returns the violation message (empty if nothing fired).
std::string violation_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const InvariantViolation& e) {
    return e.what();
  }
  return {};
}

TEST(CheckerBundle, MbrshpFiresOnViewWithoutStartChange) {
  Bundle b;
  b.emit(MbrStartChange{kP1, StartChangeId{1}, {kP1}});
  b.emit(MbrView{kP1, make_view(1, {kP1})});  // legal
  const std::string what = violation_of(
      [&] { b.emit(MbrView{kP2, make_view(1, {kP2})}); });
  EXPECT_NE(what.find("MBRSHP"), std::string::npos) << what;
}

TEST(CheckerBundle, WvRfifoFiresOnDuplicateDelivery) {
  Bundle b;
  const View v1 = make_view(1, {kP1, kP2});
  b.emit(GcsView{kP1, v1, {kP1}});
  b.emit(GcsView{kP2, v1, {kP2}});
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)});  // legal
  const std::string what = violation_of(
      [&] { b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)}); });  // planted dup
  EXPECT_NE(what.find("WV_RFIFO"), std::string::npos) << what;
}

TEST(CheckerBundle, WvRfifoFiresOnFifoInversion) {
  Bundle b;
  const View v1 = make_view(1, {kP1, kP2});
  b.emit(GcsView{kP1, v1, {kP1}});
  b.emit(GcsView{kP2, v1, {kP2}});
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  b.emit(GcsSend{kP1, msg(kP1, 2)});
  const std::string what = violation_of(
      [&] { b.emit(GcsDeliver{kP2, kP1, msg(kP1, 2)}); });  // skips uid 1
  EXPECT_NE(what.find("WV_RFIFO"), std::string::npos) << what;
}

TEST(CheckerBundle, VsRfifoFiresOnCutMismatch) {
  Bundle b;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  b.emit(GcsView{kP1, v1, {kP1}});
  b.emit(GcsView{kP2, v1, {kP2}});
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP1, kP1, msg(kP1, 1)});  // p1 self-delivers (SELF holds)
  b.emit(GcsView{kP2, v2, {kP2}});  // first mover fixes the cut at 0 from p1
  // p2 and p1 are both transitional over v1 -> v2 but delivered different
  // message sets in v1: Virtual Synchrony is violated.
  const std::string what =
      violation_of([&] { b.emit(GcsView{kP1, v2, {kP1}}); });
  EXPECT_NE(what.find("VS_RFIFO"), std::string::npos) << what;
}

TEST(CheckerBundle, TransSetFiresOnMemberOutsidePreviousView) {
  Bundle b;
  // p2 is in the new view but not in p1's previous view, so it cannot be in
  // p1's transitional set.
  const std::string what = violation_of(
      [&] { b.emit(GcsView{kP1, make_view(1, {kP1, kP2}), {kP1, kP2}}); });
  EXPECT_NE(what.find("TRANS_SET"), std::string::npos) << what;
}

TEST(CheckerBundle, TransSetFinalizeFiresOnInconsistentSets) {
  Bundle b;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  b.emit(GcsView{kP1, v1, {kP1}});
  b.emit(GcsView{kP2, v1, {kP2}});
  // Both move v1 -> v2, so Property 4.1 requires each to list the other as
  // transitional; p1 omits p2.
  b.emit(GcsView{kP1, v2, {kP1}});
  b.emit(GcsView{kP2, v2, {kP1, kP2}});
  const std::string what = violation_of([&] { b.checkers.finalize(); });
  EXPECT_NE(what.find("TRANS_SET"), std::string::npos) << what;
}

TEST(CheckerBundle, SelfFiresOnViewBeforeOwnDelivery) {
  Bundle b;
  const View v1 = make_view(1, {kP1, kP2});
  b.emit(GcsView{kP1, v1, {kP1}});
  b.emit(GcsView{kP2, v1, {kP2}});
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  // p1 moves on without delivering its own message: Self Delivery violated.
  const std::string what = violation_of(
      [&] { b.emit(GcsView{kP1, make_view(2, {kP1, kP2}, 2), {kP1}}); });
  EXPECT_NE(what.find("SELF"), std::string::npos) << what;
}

TEST(CheckerBundle, ClientFiresOnBlockOkWithoutBlock) {
  Bundle b;
  const std::string what = violation_of([&] { b.emit(GcsBlockOk{kP1}); });
  EXPECT_NE(what.find("CLIENT"), std::string::npos) << what;
}

TEST(CheckerBundle, ClientFiresOnSendWhileBlocked) {
  Bundle b;
  b.emit(GcsBlock{kP1});
  b.emit(GcsBlockOk{kP1});  // legal: answers the outstanding block
  const std::string what =
      violation_of([&] { b.emit(GcsSend{kP1, msg(kP1, 1)}); });
  EXPECT_NE(what.find("CLIENT"), std::string::npos) << what;
}

// CO_RFIFO sits below the GCS trace vocabulary and is fed directly.
TEST(CheckerBundle, CoRfifoFiresOnDuplicateDelivery) {
  CoRfifoChecker c;
  const net::NodeId a{1};
  const net::NodeId b{2};
  c.note_reliable(a, {b});
  c.note_send(a, {b}, 1);
  c.note_deliver(a, b, 1);  // legal
  const std::string what = violation_of([&] { c.note_deliver(a, b, 1); });
  EXPECT_NE(what.find("CO_RFIFO"), std::string::npos) << what;
}

TEST(CheckerBundle, CoRfifoFiresOnGapBeforeReliableMessage) {
  CoRfifoChecker c;
  const net::NodeId a{1};
  const net::NodeId b{2};
  c.note_reliable(a, {b});
  c.note_send(a, {b}, 1);
  c.note_send(a, {b}, 2);
  const std::string what = violation_of([&] { c.note_deliver(a, b, 2); });
  EXPECT_NE(what.find("CO_RFIFO"), std::string::npos) << what;
}

// Liveness (Property 4.2) is a whole-trace post-analysis.
TEST(CheckerBundle, LivenessFiresOnUndeliveredMessageInStableView) {
  Bundle b;
  const View v = make_view(1, {kP1, kP2});
  b.emit(MbrStartChange{kP1, StartChangeId{1}, {kP1, kP2}});
  b.emit(MbrStartChange{kP2, StartChangeId{1}, {kP1, kP2}});
  b.emit(MbrView{kP1, v});
  b.emit(MbrView{kP2, v});
  b.emit(GcsView{kP1, v, {kP1}});
  b.emit(GcsView{kP2, v, {kP2}});
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP1, kP1, msg(kP1, 1)});
  // p2 never delivers uid 1 although membership stabilized on v.
  const std::string what =
      violation_of([&] { LivenessChecker::check(b.bus.recorded()); });
  EXPECT_NE(what.find("Liveness"), std::string::npos) << what;
}

TEST(CheckerBundle, LivenessFiresOnMemberWithoutViewDelivery) {
  Bundle b;
  const View v = make_view(1, {kP1, kP2});
  b.emit(MbrStartChange{kP1, StartChangeId{1}, {kP1, kP2}});
  b.emit(MbrStartChange{kP2, StartChangeId{1}, {kP1, kP2}});
  b.emit(MbrView{kP1, v});
  b.emit(MbrView{kP2, v});
  b.emit(GcsView{kP1, v, {kP1}});
  // p2's GCS never delivers the stable view.
  const std::string what =
      violation_of([&] { LivenessChecker::check(b.bus.recorded()); });
  EXPECT_NE(what.find("Liveness"), std::string::npos) << what;
}

TEST(CheckerBundle, LivenessPremiseFailureIsNotAViolation) {
  Bundle b;
  // No membership events at all: the stabilization premise does not hold,
  // so check() reports "nothing to assert" instead of throwing.
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  EXPECT_FALSE(LivenessChecker::check(b.bus.recorded()));
}

TEST(CheckerBundle, ExactBundleIgnoresCorruptionMarkers) {
  // A default bundle has no window: a corruption marker tolerates nothing.
  Bundle b;
  b.emit(FaultInjected{"corrupt_seq", "no window"});
  const std::string what = violation_of([&] { b.emit(GcsBlockOk{kP1}); });
  EXPECT_NE(what.find("CLIENT"), std::string::npos) << what;
  EXPECT_EQ(b.checkers.tolerated(), 0u);
}

// ---------------------------------------------------------------------------
// The bundle with a tolerance window (DESIGN.md §12): a corruption
// FaultInjected opens the window; violations inside it are swallowed and
// counted, the same violation after the window closes must still fire.
// ---------------------------------------------------------------------------

constexpr sim::Time kWindow = 10 * sim::kSecond;

struct EventualBundle {
  EventualBundle() : checkers(kWindow) {
    bus.set_recording(true);
    checkers.attach(bus);
  }
  void emit(EventBody body) { bus.emit(++t, std::move(body)); }
  void emit_at(sim::Time at, EventBody body) {
    t = at;
    bus.emit(at, std::move(body));
  }

  TraceBus bus;
  AllCheckers checkers;
  sim::Time t = 0;
};

/// Plants the same violation twice: once inside a corruption tolerance window
/// (must be swallowed and counted) and once after the window closed (must
/// fire with `tag`). Proves each checker of the bundle is neither vacuous
/// (post-window arm) nor exact (in-window arm). The third arm guards the
/// rule the bundle relies on, that a checker tests before its effect: after
/// the window, `probe` gets the same verdict from a bundle that tolerated the
/// planted event as from one that never saw it. Each probe reads the state
/// the planted event would have written had its effect run.
void expect_tolerated_then_fires(
    const std::string& tag, const std::function<void(EventualBundle&)>& setup,
    const std::function<void(EventualBundle&)>& plant,
    const std::function<void(EventualBundle&)>& probe) {
  {
    EventualBundle b;
    b.emit(FaultInjected{"corrupt_seq", "in-window"});
    setup(b);
    const std::string what = violation_of([&] { plant(b); });
    EXPECT_TRUE(what.empty())
        << "in-window violation must be tolerated: " << what;
    EXPECT_GT(b.checkers.tolerated(), 0u);
  }
  {
    EventualBundle b;
    b.emit(FaultInjected{"bug_corrupt_wedge", "post-window"});
    setup(b);
    b.t += kWindow + sim::kSecond;  // next emit lands past the deadline
    const std::string what = violation_of([&] { plant(b); });
    EXPECT_NE(what.find(tag), std::string::npos) << what;
  }
  {
    EventualBundle saw;
    EventualBundle never;
    for (EventualBundle* b : {&saw, &never}) {
      b->emit(FaultInjected{"corrupt_seq", "in-window"});
      setup(*b);
    }
    const std::string planted = violation_of([&] { plant(saw); });
    EXPECT_TRUE(planted.empty()) << planted;
    saw.t = never.t = saw.t + kWindow + sim::kSecond;
    EXPECT_EQ(violation_of([&] { probe(saw); }),
              violation_of([&] { probe(never); }))
        << tag << ": a tolerated event changed its checker";
  }
}

TEST(EventualBundle, MbrshpToleratedInWindowFiresAfter) {
  expect_tolerated_then_fires(
      "MBRSHP",
      [](EventualBundle& b) {
        b.emit(MbrStartChange{kP1, StartChangeId{1}, {kP1}});
        b.emit(MbrView{kP1, make_view(1, {kP1})});
      },
      [](EventualBundle& b) { b.emit(MbrView{kP2, make_view(1, {kP2})}); },
      // Trips Local Monotonicity if the rejected view advanced p2's floor.
      [](EventualBundle& b) {
        b.emit(MbrStartChange{kP2, StartChangeId{1}, {kP2}});
        b.emit(MbrView{kP2, make_view(1, {kP2})});
      });
}

TEST(EventualBundle, WvRfifoToleratedInWindowFiresAfter) {
  const View v1 = make_view(1, {kP1, kP2});
  expect_tolerated_then_fires(
      "WV_RFIFO",
      [&](EventualBundle& b) {
        b.emit(GcsView{kP1, v1, {kP1}});
        b.emit(GcsView{kP2, v1, {kP2}});
        b.emit(GcsSend{kP1, msg(kP1, 1)});
        b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)});
      },
      [&](EventualBundle& b) { b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)}); },
      // Skips uid 2 if the rejected duplicate advanced p2's delivery index.
      [](EventualBundle& b) {
        b.emit(GcsSend{kP1, msg(kP1, 2)});
        b.emit(GcsDeliver{kP2, kP1, msg(kP1, 2)});
      });
}

TEST(EventualBundle, VsRfifoToleratedInWindowFiresAfter) {
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  expect_tolerated_then_fires(
      "VS_RFIFO",
      [&](EventualBundle& b) {
        b.emit(GcsView{kP1, v1, {kP1}});
        b.emit(GcsView{kP2, v1, {kP2}});
        b.emit(GcsSend{kP1, msg(kP1, 1)});
        b.emit(GcsDeliver{kP1, kP1, msg(kP1, 1)});
        b.emit(GcsView{kP2, v2, {kP2}});
      },
      [&](EventualBundle& b) { b.emit(GcsView{kP1, v2, {kP1}}); },
      // p2 fixes the v2 -> v3 cut at nothing delivered. p1's move to v3
      // would break it had the rejected view moved p1 into v2 with its v1
      // delivery still counted; p1 moves from v1 and fixes its own cut.
      [&](EventualBundle& b) {
        const View v3 = make_view(3, {kP1, kP2}, 3);
        b.emit(GcsView{kP2, v3, {kP2}});
        b.emit(GcsView{kP1, v3, {kP1}});
      });
}

TEST(EventualBundle, TransSetToleratedInWindowFiresAfter) {
  expect_tolerated_then_fires(
      "TRANS_SET", [](EventualBundle&) {},
      [](EventualBundle& b) {
        b.emit(GcsView{kP1, make_view(1, {kP1, kP2}), {kP1, kP2}});
      },
      // Fires only while p1's previous view excludes p2: it would pass had
      // the rejected view become p1's current one.
      [](EventualBundle& b) {
        b.emit(GcsView{kP1, make_view(2, {kP1, kP2}, 2), {kP1, kP2}});
      });
}

TEST(EventualBundle, SelfToleratedInWindowFiresAfter) {
  const View v1 = make_view(1, {kP1, kP2});
  expect_tolerated_then_fires(
      "SELF",
      [&](EventualBundle& b) {
        b.emit(GcsView{kP1, v1, {kP1}});
        b.emit(GcsView{kP2, v1, {kP2}});
        b.emit(GcsSend{kP1, msg(kP1, 1)});
      },
      [](EventualBundle& b) {
        b.emit(GcsView{kP1, make_view(2, {kP1, kP2}, 2), {kP1}});
      },
      // p1's m1 is still undelivered, so its next view fires; it would pass
      // had the rejected view reset p1's own counts.
      [](EventualBundle& b) {
        b.emit(GcsView{kP1, make_view(3, {kP1, kP2}, 3), {kP1}});
      });
}

TEST(EventualBundle, ClientToleratedInWindowFiresAfter) {
  expect_tolerated_then_fires(
      "CLIENT", [](EventualBundle&) {},
      [](EventualBundle& b) { b.emit(GcsBlockOk{kP1}); },
      // Fires if the rejected block_ok left p1 blocked.
      [](EventualBundle& b) { b.emit(GcsSend{kP1, msg(kP1, 1)}); });
}

TEST(EventualBundle, NoCorruptionMeansExactSemantics) {
  // Without a corruption event there is no window at all: the bundle judges
  // exactly, even at time zero.
  EventualBundle b;
  const std::string what = violation_of([&] { b.emit(GcsBlockOk{kP1}); });
  EXPECT_NE(what.find("CLIENT"), std::string::npos) << what;
  EXPECT_EQ(b.checkers.tolerated(), 0u);
}

TEST(EventualBundle, ResyncTracksPostCorruptionStateAfterToleratedViolation) {
  EventualBundle b;
  const View v1 = make_view(1, {kP1, kP2});
  b.emit(FaultInjected{"corrupt_seq", ""});
  b.emit(GcsView{kP1, v1, {kP1}});
  b.emit(GcsView{kP2, v1, {kP2}});
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)});  // duplicate: tolerated
  // Counted once: only WV_RFIFO raises it, and the VS_RFIFO and SELF
  // checkers never see the rejected delivery.
  EXPECT_EQ(b.checkers.tolerated(), 1u);
  // The rejected duplicate left the automaton as it was, so it keeps
  // checking: the next legal pair passes, and a post-window duplicate of it
  // still fires.
  b.emit(GcsSend{kP1, msg(kP1, 2)});
  b.emit(GcsDeliver{kP2, kP1, msg(kP1, 2)});
  b.t += kWindow;
  const std::string what =
      violation_of([&] { b.emit(GcsDeliver{kP2, kP1, msg(kP1, 2)}); });
  EXPECT_NE(what.find("WV_RFIFO"), std::string::npos) << what;
}

TEST(EventualBundle, StabilizeExtendsAnOpenWindowButNeverReopensAClosedOne) {
  const View v1 = make_view(1, {kP1, kP2});
  const auto legal_stream = [&](EventualBundle& b) {
    b.emit(GcsView{kP1, v1, {kP1}});
    b.emit(GcsView{kP2, v1, {kP2}});
    b.emit(GcsSend{kP1, msg(kP1, 1)});
    b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)});
  };
  {
    // corrupt at 1s => deadline 11s; stabilize at 9s extends it to 19s, so
    // the duplicate at 15s is still recovery fallout.
    EventualBundle b;
    b.emit_at(1 * sim::kSecond, FaultInjected{"corrupt_ack", ""});
    legal_stream(b);
    b.emit_at(9 * sim::kSecond, FaultInjected{"stabilize", ""});
    const std::string what = violation_of(
        [&] { b.emit_at(15 * sim::kSecond, GcsDeliver{kP2, kP1, msg(kP1, 1)}); });
    EXPECT_TRUE(what.empty()) << what;
    EXPECT_EQ(b.checkers.tolerated(), 1u);
  }
  {
    // stabilize at 20s arrives after the window closed at 11s: it must not
    // reopen tolerance, so the duplicate at 21s fires.
    EventualBundle b;
    b.emit_at(1 * sim::kSecond, FaultInjected{"corrupt_ack", ""});
    legal_stream(b);
    b.emit_at(20 * sim::kSecond, FaultInjected{"stabilize", ""});
    const std::string what = violation_of(
        [&] { b.emit_at(21 * sim::kSecond, GcsDeliver{kP2, kP1, msg(kP1, 1)}); });
    EXPECT_NE(what.find("WV_RFIFO"), std::string::npos) << what;
  }
}

TEST(EventualBundle, ForgedDuplicateCountsOnceAndShiftsNoLaterCut) {
  // p1 delivers its own message a second time inside the window. Only
  // WV_RFIFO raises it: VS_RFIFO and SELF never see the forged delivery, so
  // p1's view change after the window is judged by the one delivery WV_RFIFO
  // accepted. Its cut matches p2's, and it has delivered its one message.
  EventualBundle b;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  b.emit(FaultInjected{"corrupt_seq", ""});
  b.emit(GcsView{kP1, v1, {kP1}});
  b.emit(GcsView{kP2, v1, {kP2}});
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP1, kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)});
  const std::string forged =
      violation_of([&] { b.emit(GcsDeliver{kP1, kP1, msg(kP1, 1)}); });
  EXPECT_TRUE(forged.empty()) << forged;
  EXPECT_EQ(b.checkers.tolerated(), 1u);
  b.t += kWindow;
  b.emit(GcsView{kP2, v2, {kP1, kP2}});  // p2 fixes the v1 -> v2 cut
  const std::string what =
      violation_of([&] { b.emit(GcsView{kP1, v2, {kP1, kP2}}); });
  EXPECT_TRUE(what.empty()) << what;
  EXPECT_EQ(b.checkers.tolerated(), 1u);
}

TEST(EventualBundle, RebuildReplaysOnlyWhatWvRfifoAccepted) {
  // Inside the window p1's forged duplicate (WV_RFIFO) and p2's view change
  // before delivering its own m2 (SELF) are tolerated, and each rejected
  // event is dropped for the checker that raised it. The SELF checker never
  // saw the forged delivery, so p1's view change after the window finds 1 of
  // its 1 own messages delivered.
  EventualBundle b;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  b.emit(FaultInjected{"corrupt_seq", ""});
  b.emit(GcsView{kP1, v1, {kP1}});
  b.emit(GcsView{kP2, v1, {kP2}});
  b.emit(GcsSend{kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP1, kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP2, kP1, msg(kP1, 1)});
  b.emit(GcsDeliver{kP1, kP1, msg(kP1, 1)});  // forged
  b.emit(GcsSend{kP2, msg(kP2, 2)});
  b.emit(GcsView{kP2, v2, {kP1, kP2}});  // m2 not delivered yet
  EXPECT_EQ(b.checkers.tolerated(), 2u);
  b.t += kWindow;
  const std::string what =
      violation_of([&] { b.emit(GcsView{kP1, v2, {kP1, kP2}}); });
  EXPECT_TRUE(what.empty()) << what;
}

TEST(EventualBundle, FinalizeExemptsTransitionsInsideTheWindowOnly) {
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  {
    // Both v1 -> v2 transitions land inside the window: Property 4.1's
    // cross-process check exempts them (they may straddle the recovery).
    EventualBundle b;
    b.emit(FaultInjected{"corrupt_view_id", ""});
    b.emit(GcsView{kP1, v1, {kP1}});
    b.emit(GcsView{kP2, v1, {kP2}});
    b.emit(GcsView{kP1, v2, {kP1}});  // omits p2: inconsistent sets
    b.emit(GcsView{kP2, v2, {kP1, kP2}});
    EXPECT_TRUE(violation_of([&] { b.checkers.finalize(); }).empty());
  }
  {
    // The same inconsistency recorded after the window must still fire.
    EventualBundle b;
    b.emit(FaultInjected{"corrupt_view_id", ""});
    b.emit(GcsView{kP1, v1, {kP1}});
    b.emit(GcsView{kP2, v1, {kP2}});
    b.emit_at(kWindow + 2 * sim::kSecond, GcsView{kP1, v2, {kP1}});
    b.emit(GcsView{kP2, v2, {kP1, kP2}});
    const std::string what = violation_of([&] { b.checkers.finalize(); });
    EXPECT_NE(what.find("TRANS_SET"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace vsgc::spec
