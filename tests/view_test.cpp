// Unit tests: View type, FifoBuffer, wire message sizing, oracle membership.
#include <gtest/gtest.h>

#include "gcs/fifo_buffer.hpp"
#include "gcs/messages.hpp"
#include "membership/oracle.hpp"
#include "membership/view.hpp"
#include "util/assert.hpp"
#include "util/wire_codec.hpp"

namespace vsgc {
namespace {

TEST(View, InitialViewIsSingleton) {
  const View v = View::initial(ProcessId{7});
  EXPECT_EQ(v.id, ViewId::zero());
  EXPECT_EQ(v.members, std::set<ProcessId>{ProcessId{7}});
  EXPECT_EQ(v.start_id_of(ProcessId{7}), StartChangeId::zero());
  EXPECT_TRUE(v.contains(ProcessId{7}));
  EXPECT_FALSE(v.contains(ProcessId{8}));
}

TEST(View, EqualityComparesAllThreeComponents) {
  View a = View::initial(ProcessId{1});
  View b = a;
  EXPECT_EQ(a, b);
  b.start_id[ProcessId{1}] = StartChangeId{5};
  EXPECT_NE(a, b) << "same id+members but different startId => different view";
}

TEST(View, EncodeDecodeRoundTrip) {
  View v;
  v.id = ViewId{42, 3};
  v.members = {ProcessId{1}, ProcessId{2}, ProcessId{9}};
  v.start_id = {{ProcessId{1}, StartChangeId{10}},
                {ProcessId{2}, StartChangeId{20}},
                {ProcessId{9}, StartChangeId{90}}};
  Encoder enc;
  codec::encode(v, enc);
  Decoder dec(enc.bytes());
  const View round = codec::decode<View>(dec);
  EXPECT_EQ(v, round);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(codec::wire_size(v), enc.size());
}

TEST(View, ToStringMentionsMembersAndCids) {
  View v = View::initial(ProcessId{3});
  const std::string s = to_string(v);
  EXPECT_NE(s.find("p3"), std::string::npos);
}

TEST(FifoBuffer, AppendAndPrefix) {
  gcs::FifoBuffer buf;
  EXPECT_EQ(buf.longest_prefix(), 0);
  EXPECT_EQ(buf.append(gcs::AppMsg{ProcessId{1}, 1, "a"}), 1);
  EXPECT_EQ(buf.append(gcs::AppMsg{ProcessId{1}, 2, "b"}), 2);
  EXPECT_EQ(buf.longest_prefix(), 2);
  EXPECT_EQ(buf.last_index(), 2);
  ASSERT_NE(buf.get(1), nullptr);
  EXPECT_EQ(buf.get(1)->payload, "a");
  EXPECT_EQ(buf.get(3), nullptr);
}

TEST(FifoBuffer, OutOfOrderInsertsLeaveGap) {
  gcs::FifoBuffer buf;
  buf.put(3, gcs::AppMsg{ProcessId{1}, 3, "c"});
  EXPECT_EQ(buf.longest_prefix(), 0) << "gap at 1..2";
  EXPECT_EQ(buf.last_index(), 3);
  buf.put(1, gcs::AppMsg{ProcessId{1}, 1, "a"});
  EXPECT_EQ(buf.longest_prefix(), 1);
  buf.put(2, gcs::AppMsg{ProcessId{1}, 2, "b"});
  EXPECT_EQ(buf.longest_prefix(), 3) << "gap closed, prefix jumps";
}

TEST(FifoBuffer, DuplicatePutIsIdempotent) {
  gcs::FifoBuffer buf;
  buf.put(1, gcs::AppMsg{ProcessId{1}, 1, "a"});
  buf.put(1, gcs::AppMsg{ProcessId{1}, 99, "other"});
  EXPECT_EQ(buf.get(1)->uid, 1u) << "first write wins";
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WireMessages, SizesTrackPayloads) {
  gcs::AppMsg small{ProcessId{1}, 1, "x"};
  gcs::AppMsg big{ProcessId{1}, 2, std::string(1000, 'y')};
  EXPECT_GT(codec::wire_size(gcs::wire::AppMsgWire{big}),
            codec::wire_size(gcs::wire::AppMsgWire{small}) + 900);
  gcs::wire::SyncMsg sync{StartChangeId{1}, View::initial(ProcessId{1}), {}};
  sync.cut = {{ProcessId{1}, 5}, {ProcessId{2}, 7}};
  EXPECT_GT(codec::wire_size(sync), 20u) << "cut entries must be accounted";
}

TEST(Oracle, EnforcesStartChangeBeforeView) {
  membership::OracleMembership oracle;
  class Nop : public membership::Listener {
    void on_start_change(StartChangeId, const std::set<ProcessId>&) override {}
    void on_view(const View&) override {}
  } nop;
  oracle.attach(ProcessId{1}, nop);
  EXPECT_THROW(oracle.deliver_view({ProcessId{1}}), InvariantViolation);
  oracle.start_change({ProcessId{1}});
  EXPECT_NO_THROW(oracle.deliver_view({ProcessId{1}}));
  // Second view without a new start_change is illegal.
  EXPECT_THROW(oracle.deliver_view({ProcessId{1}}), InvariantViolation);
}

TEST(Oracle, CidsIncreasePerProcess) {
  membership::OracleMembership oracle;
  class Nop : public membership::Listener {
    void on_start_change(StartChangeId, const std::set<ProcessId>&) override {}
    void on_view(const View&) override {}
  } nop;
  oracle.attach(ProcessId{1}, nop);
  const auto c1 = oracle.start_change_to(ProcessId{1}, {ProcessId{1}});
  const auto c2 = oracle.start_change_to(ProcessId{1}, {ProcessId{1}});
  EXPECT_LT(c1, c2);
}

TEST(Oracle, ViewCarriesLatestCids) {
  membership::OracleMembership oracle;
  class Nop : public membership::Listener {
    void on_start_change(StartChangeId, const std::set<ProcessId>&) override {}
    void on_view(const View&) override {}
  } nop;
  oracle.attach(ProcessId{1}, nop);
  oracle.attach(ProcessId{2}, nop);
  oracle.start_change({ProcessId{1}, ProcessId{2}});
  oracle.start_change({ProcessId{1}, ProcessId{2}});
  const View v = oracle.deliver_view({ProcessId{1}, ProcessId{2}});
  EXPECT_EQ(v.start_id_of(ProcessId{1}), oracle.last_cid(ProcessId{1}));
  EXPECT_EQ(v.start_id_of(ProcessId{1}).value, 2u);
}

}  // namespace
}  // namespace vsgc
