// Self-tests for the executable specification automata: each checker must
// accept legal traces and reject traces that violate its property. (If the
// checkers were vacuous, every integration test would be meaningless.)
#include <gtest/gtest.h>

#include <string>

#include "spec/all_checkers.hpp"
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

template <typename Checker, typename... Events>
void feed(Checker& c, Events&&... events) {
  sim::Time t = 0;
  (c.on_event(Event{++t, std::forward<Events>(events)}), ...);
}

/// Feeds `events` to `c`; returns the violation message (empty if none).
template <typename Checker, typename... Events>
std::string violation_of(Checker& c, Events&&... events) {
  try {
    feed(c, std::forward<Events>(events)...);
  } catch (const InvariantViolation& e) {
    return e.what();
  }
  return {};
}

// ---------------------------------------------------------------------------
// MBRSHP checker (Figure 2)
// ---------------------------------------------------------------------------

TEST(MbrshpCheckerSpec, AcceptsLegalSequence) {
  MbrshpChecker c;
  const View v = make_view(1, {kP1, kP2});
  EXPECT_NO_THROW(feed(c, MbrStartChange{kP1, StartChangeId{1}, {kP1, kP2}},
                       MbrView{kP1, v}));
}

TEST(MbrshpCheckerSpec, RejectsViewWithoutStartChange) {
  MbrshpChecker c;
  EXPECT_THROW(feed(c, MbrView{kP1, make_view(1, {kP1})}), InvariantViolation);
}

TEST(MbrshpCheckerSpec, RejectsNonIncreasingCid) {
  MbrshpChecker c;
  EXPECT_THROW(feed(c, MbrStartChange{kP1, StartChangeId{2}, {kP1}},
                    MbrStartChange{kP1, StartChangeId{2}, {kP1}}),
               InvariantViolation);
}

TEST(MbrshpCheckerSpec, RejectsSelfExclusion) {
  MbrshpChecker c;
  EXPECT_THROW(feed(c, MbrStartChange{kP1, StartChangeId{1}, {kP2}}),
               InvariantViolation);
}

TEST(MbrshpCheckerSpec, RejectsNonMonotonicViews) {
  MbrshpChecker c;
  EXPECT_THROW(
      feed(c, MbrStartChange{kP1, StartChangeId{1}, {kP1}},
           MbrView{kP1, make_view(5, {kP1})},
           MbrStartChange{kP1, StartChangeId{2}, {kP1}},
           MbrView{kP1, make_view(3, {kP1}, 2)}),
      InvariantViolation);
}

TEST(MbrshpCheckerSpec, RejectsStaleStartId) {
  MbrshpChecker c;
  // View carries cid 1 although cid 2 was the last start_change.
  EXPECT_THROW(feed(c, MbrStartChange{kP1, StartChangeId{1}, {kP1}},
                    MbrStartChange{kP1, StartChangeId{2}, {kP1}},
                    MbrView{kP1, make_view(1, {kP1}, 1)}),
               InvariantViolation);
}

TEST(MbrshpCheckerSpec, RejectsMemberOutsideAnnouncedSet) {
  MbrshpChecker c;
  EXPECT_THROW(feed(c, MbrStartChange{kP1, StartChangeId{1}, {kP1}},
                    MbrView{kP1, make_view(1, {kP1, kP2})}),
               InvariantViolation);
}

// ---------------------------------------------------------------------------
// WV_RFIFO checker (Figure 4)
// ---------------------------------------------------------------------------

TEST(WvRfifoCheckerSpec, AcceptsFifoDeliveryInView) {
  WvRfifoChecker c;
  const View v = make_view(1, {kP1, kP2});
  EXPECT_NO_THROW(feed(c, GcsView{kP1, v, {kP1}}, GcsView{kP2, v, {kP2}},
                       GcsSend{kP1, msg(kP1, 1)}, GcsSend{kP1, msg(kP1, 2)},
                       GcsDeliver{kP2, kP1, msg(kP1, 1)},
                       GcsDeliver{kP2, kP1, msg(kP1, 2)}));
}

TEST(WvRfifoCheckerSpec, RejectsDeliveryNeverSent) {
  WvRfifoChecker c;
  const View v = make_view(1, {kP1, kP2});
  EXPECT_THROW(feed(c, GcsView{kP1, v, {}}, GcsView{kP2, v, {}},
                    GcsDeliver{kP2, kP1, msg(kP1, 9)}),
               InvariantViolation);
}

TEST(WvRfifoCheckerSpec, RejectsOutOfOrderDelivery) {
  WvRfifoChecker c;
  const View v = make_view(1, {kP1, kP2});
  EXPECT_THROW(feed(c, GcsView{kP1, v, {}}, GcsView{kP2, v, {}},
                    GcsSend{kP1, msg(kP1, 1)}, GcsSend{kP1, msg(kP1, 2)},
                    GcsDeliver{kP2, kP1, msg(kP1, 2)}),
               InvariantViolation);
}

TEST(WvRfifoCheckerSpec, RejectsCrossViewDelivery) {
  WvRfifoChecker c;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  // p1 sends in v1; p2 moves to v2 and then "delivers" the v1 message.
  EXPECT_THROW(feed(c, GcsView{kP1, v1, {}}, GcsView{kP2, v1, {}},
                    GcsSend{kP1, msg(kP1, 1)}, GcsView{kP2, v2, {}},
                    GcsDeliver{kP2, kP1, msg(kP1, 1)}),
               InvariantViolation);
}

TEST(WvRfifoCheckerSpec, RejectsViewRegression) {
  WvRfifoChecker c;
  EXPECT_THROW(feed(c, GcsView{kP1, make_view(5, {kP1}), {}},
                    GcsView{kP1, make_view(4, {kP1}), {}}),
               InvariantViolation);
}

TEST(WvRfifoCheckerSpec, RejectsViewRegressionAcrossRecovery) {
  WvRfifoChecker c;
  EXPECT_THROW(feed(c, GcsView{kP1, make_view(5, {kP1}), {}}, Crash{kP1},
                    Recover{kP1}, GcsView{kP1, make_view(4, {kP1}), {}}),
               InvariantViolation);
}

TEST(WvRfifoCheckerSpec, AcceptsFreshStreamAfterRecovery) {
  WvRfifoChecker c;
  EXPECT_NO_THROW(feed(c, GcsSend{kP1, msg(kP1, 1)},
                       GcsDeliver{kP1, kP1, msg(kP1, 1)}, Crash{kP1},
                       Recover{kP1}, GcsSend{kP1, msg(kP1, 2)},
                       GcsDeliver{kP1, kP1, msg(kP1, 2)}));
}

// ---------------------------------------------------------------------------
// VS_RFIFO checker (Figure 5)
// ---------------------------------------------------------------------------

TEST(VsRfifoCheckerSpec, RejectsMismatchedCuts) {
  VsRfifoChecker c;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  EXPECT_THROW(
      feed(c, GcsView{kP1, v1, {}}, GcsView{kP2, v1, {}},
           GcsSend{kP1, msg(kP1, 1)},
           // p2 delivers the message, p1 does not; both move v1 -> v2.
           GcsDeliver{kP2, kP1, msg(kP1, 1)}, GcsView{kP2, v2, {}},
           GcsView{kP1, v2, {}}),
      InvariantViolation);
}

TEST(VsRfifoCheckerSpec, AcceptsAgreedCuts) {
  VsRfifoChecker c;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  EXPECT_NO_THROW(feed(c, GcsView{kP1, v1, {}}, GcsView{kP2, v1, {}},
                       GcsSend{kP1, msg(kP1, 1)},
                       GcsDeliver{kP2, kP1, msg(kP1, 1)},
                       GcsDeliver{kP1, kP1, msg(kP1, 1)},
                       GcsView{kP2, v2, {}}, GcsView{kP1, v2, {}}));
  EXPECT_EQ(c.cuts_fixed(), 3u);  // initial singleton moves + v1->v2
}

TEST(VsRfifoCheckerSpec, RecoveredProcessMovesFromItsInitialView) {
  VsRfifoChecker c;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  // p2 delivers m1 in v1 and crashes; p1 leaves v1 without it. Recovered,
  // p2 is back in its initial view with nothing delivered, so its move to
  // v2 is another transition than p1's and fixes its own cut.
  EXPECT_NO_THROW(feed(c, GcsView{kP1, v1, {}}, GcsView{kP2, v1, {}},
                       GcsSend{kP1, msg(kP1, 1)},
                       GcsDeliver{kP2, kP1, msg(kP1, 1)}, Crash{kP2},
                       Recover{kP2}, GcsView{kP1, v2, {}},
                       GcsView{kP2, v2, {}}));
  EXPECT_EQ(c.cuts_fixed(), 4u);  // two initial moves, v1->v2, p2's rejoin
}

TEST(VsRfifoCheckerSpec, RejectsMismatchedCutsAfterRecovery) {
  VsRfifoChecker c;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  const View v3 = make_view(3, {kP1, kP2}, 3);
  // The recovered p2 rejoins p1 in v2; both leave v2 for v3, but only p2
  // delivered p1's message.
  const std::string what = violation_of(
      c, GcsView{kP1, v1, {}}, GcsView{kP2, v1, {}}, Crash{kP2}, Recover{kP2},
      GcsView{kP1, v2, {}}, GcsView{kP2, v2, {}}, GcsSend{kP1, msg(kP1, 1)},
      GcsDeliver{kP2, kP1, msg(kP1, 1)}, GcsView{kP2, v3, {}},
      GcsView{kP1, v3, {}});
  EXPECT_NE(what.find("VS_RFIFO: Virtual Synchrony violated"),
            std::string::npos)
      << what;
}

// ---------------------------------------------------------------------------
// TRANS_SET checker (Figure 6 / Property 4.1)
// ---------------------------------------------------------------------------

TEST(TransSetCheckerSpec, RejectsSelfExclusion) {
  TransSetChecker c;
  EXPECT_THROW(feed(c, GcsView{kP1, make_view(1, {kP1, kP2}), {}}),
               InvariantViolation);
}

TEST(TransSetCheckerSpec, RejectsOutsiderInTransitionalSet) {
  TransSetChecker c;
  // kP2 is not in p1's previous (initial singleton) view.
  EXPECT_THROW(feed(c, GcsView{kP1, make_view(1, {kP1, kP2}), {kP1, kP2}}),
               InvariantViolation);
}

TEST(TransSetCheckerSpec, FinalizeRejectsInconsistentSets) {
  TransSetChecker c;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  // Both move v1 -> v2 together, but p1 claims T={p1} (excludes p2).
  feed(c, GcsView{kP1, v1, {kP1}}, GcsView{kP2, v1, {kP2}},
       GcsView{kP1, v2, {kP1}}, GcsView{kP2, v2, {kP1, kP2}});
  EXPECT_THROW(c.finalize(), InvariantViolation);
}

TEST(TransSetCheckerSpec, FinalizeAcceptsConsistentSets) {
  TransSetChecker c;
  const View v1 = make_view(1, {kP1, kP2});
  const View v2 = make_view(2, {kP1, kP2}, 2);
  feed(c, GcsView{kP1, v1, {kP1}}, GcsView{kP2, v1, {kP2}},
       GcsView{kP1, v2, {kP1, kP2}}, GcsView{kP2, v2, {kP1, kP2}});
  EXPECT_NO_THROW(c.finalize());
  EXPECT_EQ(c.transitions_recorded(), 4u);
}

// ---------------------------------------------------------------------------
// SELF checker (Figure 7)
// ---------------------------------------------------------------------------

TEST(SelfCheckerSpec, RejectsViewBeforeOwnMessagesDelivered) {
  SelfChecker c;
  const View v1 = make_view(1, {kP1});
  const View v2 = make_view(2, {kP1}, 2);
  EXPECT_THROW(feed(c, GcsView{kP1, v1, {}}, GcsSend{kP1, msg(kP1, 1)},
                    GcsView{kP1, v2, {}}),
               InvariantViolation);
}

TEST(SelfCheckerSpec, AcceptsViewAfterSelfDelivery) {
  SelfChecker c;
  const View v1 = make_view(1, {kP1});
  const View v2 = make_view(2, {kP1}, 2);
  EXPECT_NO_THROW(feed(c, GcsView{kP1, v1, {}}, GcsSend{kP1, msg(kP1, 1)},
                       GcsDeliver{kP1, kP1, msg(kP1, 1)},
                       GcsView{kP1, v2, {}}));
}

TEST(SelfCheckerSpec, RecoveryForgetsOwnMessagesOfTheLostView) {
  SelfChecker c;
  const View v1 = make_view(1, {kP1});
  const View v2 = make_view(2, {kP1}, 2);
  // p1 crashes before delivering its own m1; recovered, it restarts in its
  // initial view with nothing sent, so its next view is legal.
  EXPECT_NO_THROW(feed(c, GcsView{kP1, v1, {}}, GcsSend{kP1, msg(kP1, 1)},
                       Crash{kP1}, Recover{kP1}, GcsView{kP1, v2, {}}));
}

TEST(SelfCheckerSpec, RejectsViewBeforeOwnMessagesDeliveredAfterRecovery) {
  SelfChecker c;
  const View v1 = make_view(1, {kP1});
  const View v2 = make_view(2, {kP1}, 2);
  // The counts restart at recovery: the violation counts only m2, sent in
  // the initial view.
  const std::string what = violation_of(
      c, GcsView{kP1, v1, {}}, GcsSend{kP1, msg(kP1, 1)},
      GcsDeliver{kP1, kP1, msg(kP1, 1)}, Crash{kP1}, Recover{kP1},
      GcsSend{kP1, msg(kP1, 2)}, GcsView{kP1, v2, {}});
  EXPECT_NE(what.find("delivered 0 of 1 own messages sent in " +
                      to_string(ViewId::zero())),
            std::string::npos)
      << what;
}

// ---------------------------------------------------------------------------
// CLIENT checker (Figure 12)
// ---------------------------------------------------------------------------

TEST(ClientCheckerSpec, RejectsSendWhileBlocked) {
  ClientChecker c;
  EXPECT_THROW(feed(c, GcsBlock{kP1}, GcsBlockOk{kP1},
                    GcsSend{kP1, msg(kP1, 1)}),
               InvariantViolation);
}

TEST(ClientCheckerSpec, RejectsUnsolicitedBlockOk) {
  ClientChecker c;
  EXPECT_THROW(feed(c, GcsBlockOk{kP1}), InvariantViolation);
}

TEST(ClientCheckerSpec, ViewUnblocksSending) {
  ClientChecker c;
  EXPECT_NO_THROW(feed(c, GcsBlock{kP1}, GcsBlockOk{kP1},
                       GcsView{kP1, make_view(1, {kP1}), {kP1}},
                       GcsSend{kP1, msg(kP1, 1)}));
}

// ---------------------------------------------------------------------------
// Liveness checker (Property 4.2)
// ---------------------------------------------------------------------------

TEST(LivenessCheckerSpec, DetectsStableView) {
  const View v = make_view(1, {kP1, kP2});
  std::vector<Event> trace{
      {1, MbrStartChange{kP1, StartChangeId{1}, {kP1, kP2}}},
      {1, MbrStartChange{kP2, StartChangeId{1}, {kP1, kP2}}},
      {2, MbrView{kP1, v}},
      {2, MbrView{kP2, v}},
      {3, GcsView{kP1, v, {kP1}}},
      {3, GcsView{kP2, v, {kP2}}},
  };
  ASSERT_TRUE(LivenessChecker::stable_view(trace).has_value());
  EXPECT_TRUE(LivenessChecker::check(trace));
}

TEST(LivenessCheckerSpec, NoPremiseWhenMembershipKeepsChanging) {
  const View v = make_view(1, {kP1});
  std::vector<Event> trace{
      {1, MbrView{kP1, v}},
      {2, MbrStartChange{kP1, StartChangeId{2}, {kP1}}},
  };
  EXPECT_FALSE(LivenessChecker::stable_view(trace).has_value());
  EXPECT_FALSE(LivenessChecker::check(trace));
}

TEST(LivenessCheckerSpec, RejectsMissingGcsView) {
  const View v = make_view(1, {kP1, kP2});
  std::vector<Event> trace{
      {2, MbrView{kP1, v}},
      {2, MbrView{kP2, v}},
      {3, GcsView{kP1, v, {kP1}}},
      // kP2 never delivers the view.
  };
  EXPECT_THROW(LivenessChecker::check(trace), InvariantViolation);
}

TEST(LivenessCheckerSpec, RejectsUndeliveredMessageInStableView) {
  const View v = make_view(1, {kP1, kP2});
  std::vector<Event> trace{
      {2, MbrView{kP1, v}},
      {2, MbrView{kP2, v}},
      {3, GcsView{kP1, v, {kP1}}},
      {3, GcsView{kP2, v, {kP2}}},
      {4, GcsSend{kP1, msg(kP1, 7)}},
      {5, GcsDeliver{kP1, kP1, msg(kP1, 7)}},
      // kP2 never delivers uid 7.
  };
  EXPECT_THROW(LivenessChecker::check(trace), InvariantViolation);
}

}  // namespace
}  // namespace vsgc::spec
