// Unit tests: View type, AppMsg, FifoBuffer, wire message sizing, oracle
// membership.
//
// This executable counts every operator new (tests/alloc_counter.hpp), so a
// test can show that copying a view or a message allocates nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "alloc_counter.hpp"
#include "gcs/fifo_buffer.hpp"
#include "gcs/messages.hpp"
#include "membership/oracle.hpp"
#include "membership/view.hpp"
#include "membership/wire.hpp"
#include "obs/json_fields.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/wire_codec.hpp"

namespace vsgc {
namespace {

using alloc_counter::allocations;

View view_of(ViewId id, std::set<ProcessId> members, std::uint64_t cid) {
  std::map<ProcessId, StartChangeId> start_id;
  for (ProcessId p : members) start_id[p] = StartChangeId{cid};
  return View(id, std::move(members), std::move(start_id));
}

TEST(View, InitialViewIsSingleton) {
  const View v = View::initial(ProcessId{7});
  EXPECT_EQ(v.id, ViewId::zero());
  EXPECT_EQ(v.members(), std::set<ProcessId>{ProcessId{7}});
  EXPECT_EQ(v.start_id_of(ProcessId{7}), StartChangeId::zero());
  EXPECT_TRUE(v.contains(ProcessId{7}));
  EXPECT_FALSE(v.contains(ProcessId{8}));
}

TEST(View, EqualityComparesAllThreeComponents) {
  View a = View::initial(ProcessId{1});
  View b = a;
  EXPECT_EQ(a, b);
  b = View(a.id, a.members(), {{ProcessId{1}, StartChangeId{5}}});
  EXPECT_NE(a, b) << "same id+members but different startId => different view";
}

TEST(View, DefaultViewIsEmpty) {
  const View v;
  EXPECT_EQ(v.id, ViewId::zero());
  EXPECT_TRUE(v.members().empty());
  EXPECT_TRUE(v.start_id().empty());
  EXPECT_EQ(v.body_use_count(), 0);
  EXPECT_EQ(v, View(ViewId::zero(), {}, {}));
}

TEST(View, CopySharesItsBodyAndAllocatesNothing) {
  const View v = view_of(ViewId{3, 1}, {ProcessId{1}, ProcessId{2}}, 4);
  const std::uint64_t before = allocations();
  View copy = v;
  View assigned;
  assigned = copy;
  View forged = v;
  forged.id.epoch = 99;
  const std::uint64_t after = allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(copy.shares_body_with(v));
  EXPECT_TRUE(assigned.shares_body_with(v));
  EXPECT_TRUE(forged.shares_body_with(v));
  EXPECT_EQ(v.body_use_count(), 4);
  EXPECT_EQ(copy, v);
  EXPECT_NE(forged, v) << "a forged view differs by id alone";
  EXPECT_EQ(forged.members(), v.members());
}

/// A random view over few ids and processes, so that random pairs often
/// tie on id, on members or on everything.
View random_view(Rng& rng) {
  const ViewId id{rng.next_below(3), static_cast<std::uint32_t>(rng.next_below(2))};
  std::set<ProcessId> members;
  std::map<ProcessId, StartChangeId> start_id;
  for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
    const ProcessId p{static_cast<std::uint32_t>(1 + rng.next_below(4))};
    members.insert(p);
    start_id[p] = StartChangeId{rng.next_below(2)};
  }
  return View(id, std::move(members), std::move(start_id));
}

/// The member-wise comparison a defaulted operator<=> over (id, members,
/// start_id) would make.
std::strong_ordering reference(const View& a, const View& b) {
  return std::tie(a.id, a.members(), a.start_id()) <=>
         std::tie(b.id, b.members(), b.start_id());
}

TEST(View, CompareAgreesWithMemberwiseReference) {
  Rng rng(23);
  std::vector<View> views;
  for (int i = 0; i < 64; ++i) {
    const View v = random_view(rng);
    views.push_back(v);
    // The same body under another id (a forged view), and the same parts in
    // a body of their own.
    View forged = v;
    forged.id = ViewId{v.id.epoch + 1, v.id.origin};
    views.push_back(forged);
    views.emplace_back(v.id, v.start_id());
  }
  // Same id, different members.
  views.push_back(view_of(ViewId{1, 0}, {ProcessId{1}, ProcessId{2}}, 1));
  views.push_back(view_of(ViewId{1, 0}, {ProcessId{1}}, 1));
  // Same members, different ids.
  views.push_back(view_of(ViewId{1, 1}, {ProcessId{1}, ProcessId{2}}, 1));
  views.push_back(view_of(ViewId{2, 0}, {ProcessId{1}, ProcessId{2}}, 1));
  views.emplace_back();
  std::size_t ties = 0;
  for (const View& a : views) {
    for (const View& b : views) {
      const std::strong_ordering want = reference(a, b);
      EXPECT_EQ(a <=> b, want) << to_string(a) << " vs " << to_string(b);
      EXPECT_EQ(a == b, want == 0) << to_string(a) << " vs " << to_string(b);
      EXPECT_EQ(a < b, want < 0) << to_string(a) << " vs " << to_string(b);
      if (want == 0 && !a.shares_body_with(b)) ++ties;
    }
  }
  EXPECT_GT(ties, 0u) << "no equal views in distinct bodies were compared";
}

// A delta rebuilds its view straight into the flat body: two allocations
// (the start ids and the member set) however many members it has.
TEST(View, DeltaApplyCostsTheSameAtAnySize) {
  const auto cost = [](std::uint32_t n) {
    std::map<ProcessId, StartChangeId> start_id;
    for (std::uint32_t i = 1; i <= n; ++i) {
      start_id[ProcessId{i}] = StartChangeId{3};
    }
    const View base(ViewId{1, 0}, start_id);
    start_id.erase(ProcessId{2});
    for (auto& [p, cid] : start_id) cid = StartChangeId{4};
    start_id[ProcessId{5}] = StartChangeId{9};  // an exception
    start_id[ProcessId{n + 1}] = StartChangeId{1};  // a join
    const View next(ViewId{2, 0}, start_id);
    const auto delta = membership::wire::ViewDelta::diff(base, next);
    const std::uint64_t before = allocations();
    const std::optional<View> applied = delta.apply(base);
    const std::uint64_t spent = allocations() - before;
    EXPECT_EQ(applied, next) << "at n = " << n;
    return spent;
  };
  EXPECT_EQ(cost(8), 2u);
  EXPECT_EQ(cost(64), cost(8));
}

TEST(View, EncodeDecodeRoundTrip) {
  const View v(ViewId{42, 3}, {ProcessId{1}, ProcessId{2}, ProcessId{9}},
               {{ProcessId{1}, StartChangeId{10}},
                {ProcessId{2}, StartChangeId{20}},
                {ProcessId{9}, StartChangeId{90}}});
  Encoder enc;
  codec::encode(v, enc);
  Decoder dec(enc.bytes());
  const View round = codec::decode<View>(dec);
  EXPECT_EQ(v, round);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(codec::wire_size(v), enc.size());
}

// A view's startId map names exactly its members; a decoded one that does
// not could not re-encode to the bytes it came from.
TEST(View, DecodeRejectsStartIdsThatAreNotTheMembers) {
  Encoder enc;
  enc.put_view_id(ViewId{3, 1});
  codec::Field<std::set<ProcessId>>::put(
      enc, std::set<ProcessId>{ProcessId{1}, ProcessId{2}});
  codec::Field<std::map<ProcessId, StartChangeId>>::put(
      enc, std::map<ProcessId, StartChangeId>{{ProcessId{1}, StartChangeId{4}}});
  Decoder dec(enc.bytes());
  EXPECT_THROW(codec::decode<View>(dec), DecodeError);
}

TEST(View, JsonRoundTripIsUnchanged) {
  const View v(ViewId{42, 3}, {ProcessId{1}, ProcessId{9}},
               {{ProcessId{1}, StartChangeId{10}},
                {ProcessId{9}, StartChangeId{90}}});
  const std::string text = obs::to_json(v).dump();
  EXPECT_EQ(text,
            R"({"epoch":42,"origin":3,"members":[1,9],"start_id":{"1":10,"9":90}})");
  View round;
  ASSERT_TRUE(obs::from_json(obs::JsonValue::parse(text), &round));
  EXPECT_EQ(round, v);
  EXPECT_EQ(round.members(), v.members());
  EXPECT_EQ(round.start_id(), v.start_id());
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
  EXPECT_EQ(buf.get(1)->payload(), "a");
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

gcs::AppMsg msg_of(std::uint64_t uid) {
  return gcs::AppMsg{ProcessId{1}, uid, "m" + std::to_string(uid)};
}

TEST(FifoBuffer, DuplicateTailPutAndPutBelowPrefixChangeNothing) {
  gcs::FifoBuffer buf;
  buf.put(1, msg_of(1));
  buf.put(2, msg_of(2));
  buf.put(5, msg_of(5));
  const gcs::AppMsg other{ProcessId{2}, 99, "other"};
  const std::uint64_t before = allocations();
  buf.put(5, other);  // duplicate in the tail
  buf.put(2, other);  // below the prefix
  buf.put(1, other);
  buf.put(0, other);  // indices start at 1
  buf.put(-3, other);
  EXPECT_EQ(allocations() - before, 0u) << "a no-op put copies nothing";
  EXPECT_EQ(other.payload_use_count(), 1) << "and holds no share";
  EXPECT_EQ(buf.get(5)->uid, 5u) << "first write wins in the tail";
  EXPECT_EQ(buf.get(1)->uid, 1u);
  EXPECT_EQ(buf.get(2)->uid, 2u);
  EXPECT_EQ(buf.get(0), nullptr);
  EXPECT_EQ(buf.get(-3), nullptr);
  EXPECT_EQ(buf.longest_prefix(), 2);
  EXPECT_EQ(buf.last_index(), 5);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(FifoBuffer, ForwardClosingTheGapDrainsTheWholeTailInOrder) {
  gcs::FifoBuffer buf;
  // (index put, then longest_prefix, last_index, size)
  const std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t,
                               std::size_t>>
      steps = {{1, 1, 1, 1}, {3, 1, 3, 2}, {6, 1, 6, 3},
               {4, 1, 6, 4}, {5, 1, 6, 5}, {2, 6, 6, 6},
               {8, 6, 8, 7}, {7, 8, 8, 8}};
  for (const auto& [i, prefix, last, size] : steps) {
    buf.put(i, msg_of(static_cast<std::uint64_t>(i)));
    EXPECT_EQ(buf.longest_prefix(), prefix) << "after put(" << i << ")";
    EXPECT_EQ(buf.last_index(), last) << "after put(" << i << ")";
    EXPECT_EQ(buf.size(), size) << "after put(" << i << ")";
  }
  for (std::int64_t i = 1; i <= 8; ++i) {
    ASSERT_NE(buf.get(i), nullptr) << i;
    EXPECT_EQ(buf.get(i)->uid, static_cast<std::uint64_t>(i));
    EXPECT_EQ(buf.get(i)->payload(), "m" + std::to_string(i));
  }
  EXPECT_EQ(buf.append(msg_of(9)), 9);
  EXPECT_EQ(buf.longest_prefix(), 9);
}

TEST(FifoBuffer, GetAtThePrefixTailBoundary) {
  gcs::FifoBuffer buf;
  buf.put(1, msg_of(1));
  buf.put(2, msg_of(2));
  buf.put(4, msg_of(4));
  ASSERT_NE(buf.get(2), nullptr) << "last of the prefix";
  EXPECT_EQ(buf.get(2)->uid, 2u);
  EXPECT_EQ(buf.get(3), nullptr) << "the gap";
  ASSERT_NE(buf.get(4), nullptr) << "first of the tail";
  EXPECT_EQ(buf.get(4)->uid, 4u);
  EXPECT_EQ(buf.get(5), nullptr) << "past the last index";
  EXPECT_EQ(buf.longest_prefix(), 2);
  EXPECT_EQ(buf.last_index(), 4);
}

TEST(AppMsg, CopySharesItsPayloadAndAllocatesNothing) {
  const gcs::AppMsg m{ProcessId{1}, 7, std::string(64, 'p')};
  const std::uint64_t before = allocations();
  gcs::AppMsg copy = m;
  gcs::AppMsg assigned;
  assigned = copy;
  const gcs::wire::AppMsgWire wire{m};
  const std::uint64_t after = allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(copy.shares_payload_with(m));
  EXPECT_TRUE(assigned.shares_payload_with(m));
  EXPECT_TRUE(wire.msg.shares_payload_with(m));
  EXPECT_EQ(m.payload_use_count(), 4);
  EXPECT_EQ(&copy.payload(), &m.payload()) << "one payload, not four";
  EXPECT_EQ(copy, m);
  EXPECT_EQ(assigned.uid, 7u);
}

TEST(AppMsg, DecodedMessageEqualsItsOriginalWithItsOwnBody) {
  const gcs::AppMsg m{ProcessId{3}, 42, std::string(40, 'q')};
  Encoder enc;
  codec::encode(gcs::wire::AppMsgWire{m}, enc);
  Decoder dec(enc.bytes());
  const gcs::AppMsg round = codec::decode<gcs::wire::AppMsgWire>(dec).msg;
  EXPECT_TRUE(dec.done());
  EXPECT_FALSE(round.shares_payload_with(m));
  EXPECT_EQ(round, m) << "equal contents, different bodies";
  EXPECT_NE(round, (gcs::AppMsg{ProcessId{3}, 42, std::string(40, 'r')}))
      << "same identity, different payload";
  EXPECT_NE(round, (gcs::AppMsg{ProcessId{3}, 43, m.payload()}));
}

TEST(AppMsg, EmptyPayloadHasNoBody) {
  const std::uint64_t before = allocations();
  const gcs::AppMsg m{ProcessId{2}, 5, ""};
  const gcs::AppMsg none;
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(m.payload(), "");
  EXPECT_EQ(m.payload_use_count(), 0);
  EXPECT_EQ(none.payload(), "");
  EXPECT_EQ(none.sender, ProcessId{});
  EXPECT_EQ(none.uid, 0u);
  EXPECT_NE(m, none);
  EXPECT_EQ(m, (gcs::AppMsg{ProcessId{2}, 5, ""}));

  Encoder enc;
  codec::encode(m, enc);
  Decoder dec(enc.bytes());
  EXPECT_EQ(codec::decode<gcs::AppMsg>(dec), m);
  EXPECT_EQ(codec::wire_size(m), enc.size());
  const std::string text = obs::to_json(m).dump();
  EXPECT_EQ(text, R"({"sender":2,"uid":5,"payload":""})");
  gcs::AppMsg from_text{ProcessId{9}, 9, "stale"};
  ASSERT_TRUE(obs::from_json(obs::JsonValue::parse(text), &from_text));
  EXPECT_EQ(from_text, m);
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
    void on_start_change(StartChangeId, const ProcessSet&) override {}
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
    void on_start_change(StartChangeId, const ProcessSet&) override {}
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
    void on_start_change(StartChangeId, const ProcessSet&) override {}
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
