// The end-point pump's caches (DESIGN.md §11.5).
//
// The pump re-evaluates desired_reliable_set() only after start_change, a
// membership view, a view install or recovery; these tests check that after
// each of those inputs the transport holds exactly node_of(desired ∪
// {self}), for the paper's GCS end-point and for the two-round baseline,
// and that a corrupted transport reliable set (sim::FaultOp::kCorruptReliable)
// is re-asserted by the next input's pump.
//
// The GCS end-point interns its views and caches the resolution of its
// candidate view; these tests check that held views share one body and
// that the cached resolution equals a from-scratch one after every input
// that invalidates it.
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "app/oracle_world.hpp"
#include "baseline/two_round_endpoint.hpp"

namespace vsgc {
namespace {

/// GcsEndpoint with its reliable-set hook, its delivery gate and its view
/// table made readable.
class GcsProbe : public gcs::GcsEndpoint {
 public:
  GcsProbe(sim::Simulator& sim, transport::Channel transport, ProcessId self,
           spec::TraceBus* trace)
      : gcs::GcsEndpoint(sim, transport, self,
                         gcs::make_strategy(gcs::ForwardingKind::kMinCopies),
                         trace) {}
  using gcs::GcsEndpoint::deliver_allowed;
  using gcs::GcsEndpoint::desired_reliable_set;
  using gcs::GcsEndpoint::intern;
};

/// TwoRoundEndpoint with its reliable-set hook made readable.
class TwoRoundProbe : public baseline::TwoRoundEndpoint {
 public:
  using baseline::TwoRoundEndpoint::TwoRoundEndpoint;
  using baseline::TwoRoundEndpoint::desired_reliable_set;
};

template <class Ep>
class PumpCache : public ::testing::Test {
 protected:
  static constexpr int kN = 3;

  /// Every live end-point's transport holds node_of(desired ∪ {self}).
  void expect_in_sync(const std::string& when) {
    for (int i = 0; i < kN; ++i) {
      if (w.ep(i).crashed()) continue;
      std::set<ProcessId> want = w.ep(i).desired_reliable_set();
      want.insert(w.pid(i));
      std::set<net::NodeId> nodes;
      for (ProcessId q : want) nodes.insert(net::node_of(q));
      EXPECT_EQ(w.transport(i).reliable_set(), nodes)
          << "after " << when << " at endpoint " << i;
    }
  }

  /// start_change, membership view and install over `members`, checking
  /// after each input.
  void reconfigure(const std::set<ProcessId>& members,
                   const std::string& what) {
    w.oracle.start_change(members);
    expect_in_sync(what + ": start_change");
    w.run();
    expect_in_sync(what + ": start_change settled");
    w.oracle.deliver_view(members);
    expect_in_sync(what + ": membership view");
    w.run(2 * sim::kSecond);
    for (ProcessId p : members) {
      EXPECT_EQ(w.ep(static_cast<int>(p.value) - 1).current_view().members(),
                members)
          << what << ": " << to_string(p) << " did not install";
    }
    expect_in_sync(what + ": install");
  }

  void crash(int i) {
    w.ep(i).crash();
    w.transport(i).crash();
  }

  void recover(int i) {
    w.transport(i).recover();
    w.ep(i).recover();
  }

  app::OracleWorld<Ep> w{kN};
};

using Endpoints = ::testing::Types<GcsProbe, TwoRoundProbe>;
TYPED_TEST_SUITE(PumpCache, Endpoints);

TYPED_TEST(PumpCache, TransportTracksDesiredSetAtEveryInvalidation) {
  auto& w = this->w;
  this->expect_in_sync("construction");
  this->reconfigure(w.all(), "join");
  this->reconfigure(w.pids({0, 1}), "shrink");
  this->reconfigure(w.all(), "grow");

  this->crash(2);
  this->recover(2);
  this->expect_in_sync("crash/recover");
  this->reconfigure(w.all(), "rejoin");

  w.client(0).send("after rejoin");
  w.settle();
  this->expect_in_sync("steady traffic");
  w.checkers.finalize();
}

TYPED_TEST(PumpCache, NextInputHealsCorruptedTransportReliableSet) {
  auto& w = this->w;
  this->reconfigure(w.all(), "join");
  w.settle();

  const net::NodeId peer = net::node_of(w.pid(1));
  ASSERT_TRUE(w.transport(0).corrupt_drop_reliable(peer));
  EXPECT_FALSE(w.transport(0).reliable_set().contains(peer));

  // Nothing the reliable set is derived from changed, so only the per-pump
  // comparison against the transport can notice.
  w.client(0).send("heal");
  EXPECT_TRUE(w.transport(0).reliable_set().contains(peer));
  this->expect_in_sync("the input after corruption");

  w.settle();
  for (int i = 0; i < PumpCache<TypeParam>::kN; ++i) {
    EXPECT_EQ(w.ep(i).last_dlvrd(w.pid(0)), 1) << "endpoint " << i;
  }
  w.checkers.finalize();
}

TEST(PumpCacheViews, HeldViewsShareOneInternedHandle) {
  app::OracleWorld<GcsProbe> w{3};
  w.change_view(w.all());
  w.oracle.start_change(w.all());
  w.run();
  for (int i = 0; i < 3; ++i) {
    GcsProbe& ep = w.ep(i);
    std::size_t syncs = 0;
    for (const auto& [q, per_cid] : ep.sync_msgs()) {
      for (const auto& [cid, data] : per_cid) {
        EXPECT_EQ(data.view, ep.current_view())
            << to_string(q) << "'s sync at endpoint " << i;
        EXPECT_TRUE(data.view.shares_body_with(ep.current_view()))
            << to_string(q) << "'s sync at endpoint " << i;
        ++syncs;
      }
    }
    EXPECT_EQ(syncs, 3u) << "endpoint " << i;
  }

  const View v = w.oracle.deliver_view(w.all());
  w.run();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.ep(i).current_view(), v);
    const GcsProbe& ep = w.ep(i);
    EXPECT_TRUE(ep.current_view().shares_body_with(ep.mbrshp_view()))
        << "the installed view is the membership view's body";
  }

  // Interning compares whole views: an equal view built from scratch maps
  // to the held body, a forged view under the same id gets a body of its
  // own.
  GcsProbe& ep = w.ep(0);
  const View& cv = ep.current_view();
  const View rebuilt(cv.id, cv.members(), cv.start_id());
  ASSERT_FALSE(rebuilt.shares_body_with(cv));
  EXPECT_TRUE(ep.intern(rebuilt).shares_body_with(cv));
  std::set<ProcessId> fewer = cv.members();
  fewer.erase(w.pid(2));
  const View forged(cv.id, fewer, cv.start_id());
  const View held = ep.intern(forged);
  EXPECT_NE(held, cv);
  EXPECT_FALSE(held.shares_body_with(cv));
  EXPECT_TRUE(ep.intern(View(forged.id, fewer, cv.start_id()))
                  .shares_body_with(held));
  w.checkers.finalize();
}

/// A client that never answers block(), so a test decides when block_ok()
/// (and with it the end-point's own sync message) happens.
class HoldClient : public gcs::Client {
 public:
  void deliver(ProcessId, const gcs::AppMsg&) override {}
  void view(const View&, const std::set<ProcessId>&) override {}
  void block() override {}
};

/// Endpoint 0 of three, driven input by input: the simulator never runs
/// after the first view, so each of its inputs is one the test hands it.
class CandidateCache : public ::testing::Test {
 protected:
  void SetUp() override {
    w.change_view(w.all());
    v1 = w.ep(0).current_view();
    // Two messages from p3 that endpoint 0 has not received.
    m1 = w.ep(2).send("a");
    m2 = w.ep(2).send("b");
    w.ep(0).set_client(hold);
  }

  GcsProbe& ep() { return w.ep(0); }
  ProcessId pid(int i) const { return w.pid(i); }

  void deliver(int from, const std::any& msg) {
    ASSERT_TRUE(ep().on_co_rfifo_deliver(pid(from), msg));
  }

  gcs::wire::SyncMsg sync(StartChangeId cid, const View& view,
                          std::int64_t from_p3) const {
    return {cid, view, {{pid(0), 0}, {pid(1), 0}, {pid(2), from_p3}}};
  }

  /// Runs start_change and the membership view to V2 at endpoint 0, with
  /// its own sync sent, then p2's sync, whose cut holds both of p3's
  /// messages.
  void to_candidate_with_p2_sync() {
    cids = w.oracle.start_change(w.all());
    expect_fresh("start_change");
    ep().block_ok();
    expect_fresh("own sync sent");
    v2 = w.oracle.make_view(w.all());
    w.oracle.deliver_view_to(pid(0), v2);
    expect_fresh("membership view");
    deliver(1, sync(cids.at(pid(1)), v1, 2));
    expect_fresh("p2's sync");
  }

  /// candidate_resolution() and deliver_allowed() against a resolution made
  /// from scratch from the public state, comparing views by value.
  void expect_fresh(const std::string& when) {
    const GcsProbe& e = ep();
    const View& v = e.mbrshp_view();
    const View& cv = e.current_view();
    std::vector<std::pair<ProcessId, const gcs::SyncMsgData*>> syncs;
    std::vector<ProcessId> t;
    std::vector<std::int64_t> agreed(cv.members().size(), 0);
    std::size_t missing = 0;
    for (ProcessId r : v.members()) {
      if (!cv.contains(r)) continue;
      const gcs::SyncMsgData* sm = e.sync_msg(r, v.start_id_of(r));
      syncs.emplace_back(r, sm);
      if (sm == nullptr) {
        ++missing;
        continue;
      }
      if (!(sm->view == cv)) continue;
      t.push_back(r);
      std::size_t i = 0;
      for (ProcessId q : cv.members()) {
        agreed[i] = std::max(agreed[i], sm->cut_of(q));
        ++i;
      }
    }
    const gcs::SyncResolution& res = e.candidate_resolution();
    EXPECT_EQ(res.syncs, syncs) << "after " << when;
    EXPECT_EQ(res.missing, missing) << "after " << when;
    std::vector<ProcessId> cached_t;
    for (const auto& [r, sm] : res.transitional) cached_t.push_back(r);
    EXPECT_EQ(cached_t, t) << "after " << when;
    EXPECT_EQ(res.agreed, agreed) << "after " << when;

    const auto& sc = e.start_change();
    const gcs::SyncMsgData* own =
        sc ? e.sync_msg(e.self(), sc->first) : nullptr;
    const bool matches = sc && cv.id < v.id && v.contains(e.self()) &&
                         sc->first == v.start_id_of(e.self());
    std::size_t i = 0;
    for (ProcessId q : cv.members()) {
      if (own == nullptr) {
        EXPECT_TRUE(e.deliver_allowed(
            i, q, std::numeric_limits<std::int64_t>::max()))
            << "after " << when << ": lane " << i;
      } else {
        const std::int64_t limit = matches ? agreed[i] : own->cut_of(q);
        EXPECT_TRUE(e.deliver_allowed(i, q, limit))
            << "after " << when << ": lane " << i;
        EXPECT_FALSE(e.deliver_allowed(i, q, limit + 1))
            << "after " << when << ": lane " << i;
      }
      ++i;
    }
  }

  app::OracleWorld<GcsProbe> w{3};
  HoldClient hold;
  View v1;
  View v2;
  gcs::AppMsg m1;
  gcs::AppMsg m2;
  std::map<ProcessId, StartChangeId> cids;
};

TEST_F(CandidateCache, FreshAfterEveryInvalidatingInput) {
  expect_fresh("the first view");
  to_candidate_with_p2_sync();
  deliver(2, sync(cids.at(pid(2)), v1, 2));
  expect_fresh("p3's sync");
  ASSERT_EQ(ep().current_view(), v1) << "the agreed cut waits for p3's messages";

  deliver(2, gcs::wire::AppMsgWire{m1});
  deliver(2, gcs::wire::AppMsgWire{m2});
  ASSERT_EQ(ep().current_view(), v2);
  expect_fresh("install");

  // A relayed copy of our own next sync message arrives before its
  // start_change, so that start_change sends nothing and only moves
  // start_change itself.
  const StartChangeId next{w.oracle.last_cid(pid(0)).value + 1};
  deliver(0, sync(next, v2, 1));
  expect_fresh("our own sync relayed back");
  w.oracle.start_change_to(pid(0), w.all());
  expect_fresh("a start_change whose sync is already known");

  ep().crash();
  w.transport(0).crash();
  w.transport(0).recover();
  ep().recover();
  expect_fresh("recover");
}

TEST_F(CandidateCache, FreshAfterOurOwnSyncArrivesBeforeWeSendIt) {
  // A relayed copy of our own sync message commits our cut before we send
  // it, so deliver_allowed's limit moves with no other input.
  cids = w.oracle.start_change(w.all());
  expect_fresh("start_change");
  deliver(0, sync(cids.at(pid(0)), v1, 0));
  expect_fresh("our own sync relayed back");
}

TEST_F(CandidateCache, FreshAfterCorruptViewEpoch) {
  to_candidate_with_p2_sync();
  ep().corrupt_view_epoch(v2.id.epoch + 100);
  expect_fresh("corrupt_view_epoch");
}

}  // namespace
}  // namespace vsgc
