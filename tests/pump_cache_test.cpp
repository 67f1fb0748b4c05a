// The end-point pump's caches (DESIGN.md §11.5).
//
// The pump re-evaluates desired_reliable_set() only after start_change, a
// membership view, a view install or recovery; these tests check that after
// each of those inputs the end-point's reliable set, its node image and the
// transport's set equal a from-scratch reliable set (current_view.set ∪
// start_change.set for the paper's GCS end-point, ∪ the pending views for
// the two-round baseline, current_view.set alone for the bare WV_RFIFO
// end-point, each ∪ {self}), that its view destinations equal
// current_view.set − {self}, and that a corrupted transport reliable set
// (sim::FaultOp::kCorruptReliable) is re-asserted by the next input's pump.
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
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "app/oracle_world.hpp"
#include "app/world.hpp"
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
  using gcs::GcsEndpoint::intern;
};

/// The two-round baseline under its own test name.
class TwoRoundProbe : public baseline::TwoRoundEndpoint {
 public:
  using baseline::TwoRoundEndpoint::TwoRoundEndpoint;
};

/// The reliable set of each end-point, from scratch: Figure 9's
/// current_view.set, Figure 10's ∪ start_change.set, the baseline's ∪ the
/// members of every pending view.
std::set<ProcessId> members_of(const View& v) {
  return {v.members().begin(), v.members().end()};
}
std::set<ProcessId> want_reliable(const gcs::WvRfifoEndpoint& ep) {
  return members_of(ep.current_view());
}
std::set<ProcessId> want_reliable(const gcs::VsRfifoTsEndpoint& ep) {
  std::set<ProcessId> want = members_of(ep.current_view());
  if (ep.start_change()) {
    want.insert(ep.start_change()->second.begin(),
                ep.start_change()->second.end());
  }
  return want;
}
std::set<ProcessId> want_reliable(const baseline::TwoRoundEndpoint& ep) {
  std::set<ProcessId> want = members_of(ep.current_view());
  for (const View& v : ep.pending()) {
    want.insert(v.members().begin(), v.members().end());
  }
  return want;
}

std::vector<net::NodeId> image(const std::set<ProcessId>& procs) {
  std::vector<net::NodeId> out;
  for (ProcessId q : procs) out.push_back(net::node_of(q));
  return out;
}

template <class Ep>
class PumpCache : public ::testing::Test {
 protected:
  static constexpr int kN = 3;

  /// Every live end-point's reliable set, its node image and its transport's
  /// set equal the from-scratch set ∪ {self}, and its view destinations
  /// equal current_view.set − {self}.
  void expect_in_sync(const std::string& when) {
    for (int i = 0; i < kN; ++i) {
      if (w.ep(i).crashed()) continue;
      std::set<ProcessId> want = want_reliable(w.ep(i));
      want.insert(w.pid(i));
      const std::vector<net::NodeId> nodes = image(want);
      EXPECT_EQ(w.ep(i).reliable_set(),
                std::vector<ProcessId>(want.begin(), want.end()))
          << "after " << when << " at endpoint " << i;
      EXPECT_EQ(w.ep(i).reliable_nodes(), nodes)
          << "after " << when << " at endpoint " << i;
      EXPECT_EQ(w.transport(i).reliable_set(),
                std::set<net::NodeId>(nodes.begin(), nodes.end()))
          << "after " << when << " at endpoint " << i;
      std::set<ProcessId> others = members_of(w.ep(i).current_view());
      others.erase(w.pid(i));
      EXPECT_EQ(w.ep(i).view_dests(), image(others))
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

  /// The bare WV_RFIFO end-point's checker has nothing to finalize.
  void finalize() {
    if constexpr (!app::OracleWorld<Ep>::kBareWv) w.checkers.finalize();
  }

  void recover(int i) {
    w.transport(i).recover();
    w.ep(i).recover();
  }

  app::OracleWorld<Ep> w{kN};
};

using Endpoints =
    ::testing::Types<GcsProbe, TwoRoundProbe, gcs::WvRfifoEndpoint>;
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
  this->finalize();
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
  this->finalize();
}

/// A bare WV_RFIFO end-point whose hook leaves self out.
class SelflessProbe : public gcs::WvRfifoEndpoint {
 public:
  using gcs::WvRfifoEndpoint::WvRfifoEndpoint;

 protected:
  void desired_reliable_set(std::vector<ProcessId>& out) const override {
    for (ProcessId q : current_view().members()) {
      if (q != self()) out.push_back(q);
    }
  }
};

// The pump adds self to whatever the hook writes before it compares.
TEST(PumpCacheSelf, ReliableSetHoldsSelfWhateverTheHookWrites) {
  sim::Simulator sim;
  net::Network network(sim, Rng(1), {});
  membership::OracleMembership oracle;
  std::vector<std::unique_ptr<transport::CoRfifoTransport>> xports;
  std::vector<std::unique_ptr<SelflessProbe>> eps;
  const std::set<ProcessId> all{ProcessId{1}, ProcessId{2}};
  for (ProcessId p : all) {
    xports.push_back(std::make_unique<transport::CoRfifoTransport>(
        sim, network, net::node_of(p)));
    eps.push_back(std::make_unique<SelflessProbe>(sim, *xports.back(), p));
    SelflessProbe* ep = eps.back().get();
    xports.back()->set_deliver_handler(
        [ep](net::NodeId from, const std::any& payload) {
          ep->on_co_rfifo_deliver(net::process_of(from), payload);
        });
    oracle.attach(p, *ep);
  }
  oracle.start_change(all);
  sim.run_to_quiescence();
  oracle.deliver_view(all);
  sim.run_to_quiescence();
  for (std::size_t i = 0; i < eps.size(); ++i) {
    EXPECT_EQ(eps[i]->current_view().members(), all) << "endpoint " << i;
    EXPECT_EQ(eps[i]->reliable_set(),
              std::vector<ProcessId>(all.begin(), all.end()))
        << "endpoint " << i;
    EXPECT_EQ(xports[i]->reliable_set(),
              (std::set<net::NodeId>{net::NodeId{1}, net::NodeId{2}}))
        << "endpoint " << i;
  }
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
  const std::map<ProcessId, StartChangeId> start_id(cv.start_id().begin(),
                                                    cv.start_id().end());
  const View rebuilt(cv.id, start_id);
  ASSERT_FALSE(rebuilt.shares_body_with(cv));
  EXPECT_TRUE(ep.intern(rebuilt).shares_body_with(cv));
  std::set<ProcessId> fewer = members_of(cv);
  fewer.erase(w.pid(2));
  const View forged(cv.id, fewer, start_id);
  const View held = ep.intern(forged);
  EXPECT_NE(held, cv);
  EXPECT_FALSE(held.shares_body_with(cv));
  EXPECT_TRUE(ep.intern(View(forged.id, fewer, start_id))
                  .shares_body_with(held));
  w.checkers.finalize();
}

/// A client that never answers block(), so a test decides when block_ok()
/// (and with it the end-point's own sync message) happens.
class HoldClient : public gcs::Client {
 public:
  void deliver(ProcessId, const gcs::AppMsg&) override {}
  void view(const View&, const ProcessSet&) override {}
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

// A peer's sync messages of other rounds can arrive while the candidate
// points at the one it selects. Storing them moves that peer's records
// (its storage grows, or one lands before the selected one), which must
// not leave the candidate pointing at a moved record.
TEST_F(CandidateCache, FreshAfterAPeersOtherSyncsMoveItsRecords) {
  to_candidate_with_p2_sync();
  const std::uint64_t c = cids.at(pid(1)).value;
  deliver(1, sync(StartChangeId{c + 1}, v1, 2));
  expect_fresh("p2's next sync, which grows its records");
  deliver(1, sync(StartChangeId{c + 2}, v1, 2));
  expect_fresh("p2's sync after that");
  deliver(1, sync(StartChangeId{c - 1}, v1, 2));
  expect_fresh("an older sync of p2, stored before the selected one");
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

// A membership server builds each round's start_change set once. Each
// local client gets its own StartChange, yet every endpoint's start_change
// and every MbrStartChange event of the round hold the server's one body.
TEST(PumpCacheStartChange, OneRoundSharesOneSetBody) {
  app::WorldConfig wc;
  wc.num_clients = 4;
  wc.num_servers = 1;
  app::World w(wc);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  const std::size_t recorded = w.trace().recorded().size();

  // The crash opens a round over the three survivors; catch them while
  // each holds its start_change.
  w.process(3).crash();
  const auto pending = [&w](int i) -> const gcs::VsRfifoTsEndpoint& {
    return w.process(i).endpoint();
  };
  const auto all_pending = [&]() {
    for (int i = 0; i < 3; ++i) {
      const auto& sc = pending(i).start_change();
      if (!sc || sc->second.contains(w.process(3).id())) return false;
    }
    return true;
  };
  for (int k = 0; k < 10000 && !all_pending(); ++k) {
    w.run_for(100 * sim::kMicrosecond);
  }
  ASSERT_TRUE(all_pending());

  const ProcessSet& set = pending(0).start_change()->second;
  EXPECT_EQ(set.size(), 3u);
  for (int i = 1; i < 3; ++i) {
    EXPECT_TRUE(pending(i).start_change()->second.shares_body_with(set))
        << "endpoint " << i;
  }
  std::size_t events = 0;
  const auto& log = w.trace().recorded();
  for (std::size_t k = recorded; k < log.size(); ++k) {
    const auto* sc = std::get_if<spec::MbrStartChange>(&log[k].body);
    if (sc == nullptr || sc->set != set) continue;
    EXPECT_TRUE(sc->set.shares_body_with(set)) << "event " << k;
    ++events;
  }
  EXPECT_EQ(events, 3u);
}

}  // namespace
}  // namespace vsgc
