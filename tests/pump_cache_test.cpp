// The end-point pump's cached reliable set (DESIGN.md §11.5). The pump
// re-evaluates desired_reliable_set() only after start_change, a membership
// view, a view install or recovery; these tests check that after each of
// those inputs the transport holds exactly node_of(desired ∪ {self}), for
// the paper's GCS end-point and for the two-round baseline, and that a
// corrupted transport reliable set (sim::FaultOp::kCorruptReliable) is
// re-asserted by the next input's pump.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "app/oracle_world.hpp"
#include "baseline/two_round_endpoint.hpp"

namespace vsgc {
namespace {

/// GcsEndpoint with its reliable-set hook made readable.
class GcsProbe : public gcs::GcsEndpoint {
 public:
  GcsProbe(sim::Simulator& sim, transport::Channel transport, ProcessId self,
           spec::TraceBus* trace)
      : gcs::GcsEndpoint(sim, transport, self,
                         gcs::make_strategy(gcs::ForwardingKind::kMinCopies),
                         trace) {}
  using gcs::GcsEndpoint::desired_reliable_set;
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
      EXPECT_EQ(w.ep(static_cast<int>(p.value) - 1).current_view().members,
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

}  // namespace
}  // namespace vsgc
