// Codec tests for every wire message type, driven by one list of the
// derived wire structs (kWireTypes): a seeded randomized round-trip and
// size check per struct, pinned golden bytes, and distinct tags. The wire
// format is part of the public contract.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "baseline/two_round_endpoint.hpp"
#include "gcs/messages.hpp"
#include "membership/wire.hpp"
#include "transport/frame.hpp"
#include "util/rng.hpp"
#include "util/wire_codec.hpp"

namespace vsgc {
namespace {

View random_view(Rng& rng) {
  const ViewId id{rng.next_u64() % 1000, static_cast<std::uint32_t>(rng.next_below(8))};
  std::set<ProcessId> members;
  std::map<ProcessId, StartChangeId> start_id;
  const int n = static_cast<int>(rng.next_in(1, 6));
  for (int i = 0; i < n; ++i) {
    const ProcessId p{static_cast<std::uint32_t>(rng.next_below(100))};
    members.insert(p);
    start_id[p] = StartChangeId{rng.next_u64() % 50};
  }
  return View(id, std::move(members), std::move(start_id));
}

ProcessId random_process(Rng& rng) {
  return ProcessId{static_cast<std::uint32_t>(rng.next_below(100))};
}

std::string random_payload(Rng& rng) {
  std::string s(rng.next_below(64), '\0');
  for (char& c : s) c = static_cast<char>(rng.next_in(0, 255));
  return s;
}

gcs::AppMsg random_app_msg(Rng& rng) {
  return gcs::AppMsg{random_process(rng), rng.next_u64(), random_payload(rng)};
}

gcs::wire::Cut random_cut(Rng& rng, const View& v) {
  std::vector<std::pair<ProcessId, std::int64_t>> cut;
  for (ProcessId p : v.members()) cut.emplace_back(p, rng.next_in(0, 1 << 16));
  return gcs::wire::Cut(cut.begin(), cut.end());
}

gcs::wire::SyncMsg random_sync(Rng& rng) {
  gcs::wire::SyncMsg m;
  m.cid = StartChangeId{rng.next_u64() % 1000};
  m.view = random_view(rng);
  m.cut = random_cut(rng, m.view);
  return m;
}

/// A base view and a successor with random churn: leaves, joins, a common
/// cid bump, and an occasional outlier.
std::pair<View, View> random_churn(Rng& rng) {
  for (;;) {
    View base = random_view(rng);
    base.id = ViewId{1 + rng.next_u64() % 100, 0};
    const ViewId next_id{base.id.epoch + 1 + rng.next_u64() % 10, 0};
    std::set<ProcessId> members;
    std::map<ProcessId, StartChangeId> start_id;
    const std::uint64_t bump = rng.next_in(1, 4);
    for (ProcessId p : base.members()) {
      if (rng.next_below(4) == 0) continue;  // leave
      members.insert(p);
      std::uint64_t cid = base.start_id_of(p).value + bump;
      if (rng.next_below(5) == 0) cid += 1 + rng.next_below(3);  // outlier
      start_id[p] = StartChangeId{cid};
    }
    for (int k = static_cast<int>(rng.next_below(3)); k > 0; --k) {  // joins
      const ProcessId p{static_cast<std::uint32_t>(200 + rng.next_below(50))};
      members.insert(p);
      start_id[p] = StartChangeId{rng.next_u64() % 50};
    }
    if (!members.empty()) {
      return {base, View(next_id, std::move(members), std::move(start_id))};
    }
  }
}

// Fixed instances for the golden bytes.
const ProcessId p1{1}, p3{3}, p4{4};

View fixed_view() {
  return View(ViewId{7, 2}, {p1, p3},
              {{p1, StartChangeId{5}}, {p3, StartChangeId{9}}});
}

const gcs::AppMsg kFixedApp{p3, 42, "hi"};
const gcs::wire::SyncMsg kFixedSync{StartChangeId{9}, fixed_view(),
                                    {{p1, 4}, {p3, 2}}};

/// One row per wire struct: the row's own test (Codec.<name>) round-trips
/// 50 random instances and checks codec::wire_size against the encoded
/// length; Codec.GoldenBytes pins the encoding of `fixed`; TagsAreDistinct
/// reads every kTag.
template <class T>
struct WireType {
  using Type = T;
  const char* name;
  std::uint64_t seed;
  T (*random)(Rng&);
  T fixed;
  const char* golden;  ///< hex encoding of `fixed`
};

const std::tuple kWireTypes{
    WireType<View>{
        "View", 9, random_view, fixed_view(),
        "070000000000000002000000020000000100000003000000020000000100000005"
        "00000000000000030000000900000000000000"},
    WireType<gcs::AppMsg>{"AppMsg", 10, random_app_msg, kFixedApp,
                          "030000002a00000000000000020000006869"},
    WireType<gcs::wire::ViewMsg>{
        "GcsViewMsg", 1,
        [](Rng& r) { return gcs::wire::ViewMsg{random_view(r)}; },
        gcs::wire::ViewMsg{fixed_view()},
        "01070000000000000002000000020000000100000003000000020000000100000"
        "00500000000000000030000000900000000000000"},
    WireType<gcs::wire::AppMsgWire>{
        "GcsAppMsg", 2,
        [](Rng& r) { return gcs::wire::AppMsgWire{random_app_msg(r)}; },
        gcs::wire::AppMsgWire{kFixedApp},
        "02030000002a00000000000000020000006869"},
    WireType<gcs::wire::FwdMsg>{
        "GcsFwdMsg", 3,
        [](Rng& r) {
          gcs::wire::FwdMsg m;
          m.orig = random_process(r);
          m.view = random_view(r);
          m.index = r.next_in(1, 1 << 20);
          m.msg = random_app_msg(r);
          return m;
        },
        gcs::wire::FwdMsg{p3, fixed_view(), 2, kFixedApp},
        "030300000007000000000000000200000002000000010000000300000002000000"
        "010000000500000000000000030000000900000000000000020000000000000003"
        "0000002a00000000000000020000006869"},
    WireType<gcs::wire::SyncMsg>{
        "GcsSyncMsg", 4, random_sync, kFixedSync,
        "040900000000000000070000000000000002000000020000000100000003000000"
        "020000000100000005000000000000000300000009000000000000000200000001"
        "0000000400000000000000030000000200000000000000"},
    WireType<gcs::wire::AggregateSyncMsg>{
        "GcsAggregateSyncMsg", 5,
        [](Rng& r) {
          gcs::wire::AggregateSyncMsg m;
          m.hops = static_cast<std::uint8_t>(r.next_below(2));
          for (int k = static_cast<int>(r.next_below(4)); k > 0; --k) {
            m.entries.emplace_back(random_process(r), random_sync(r));
          }
          return m;
        },
        gcs::wire::AggregateSyncMsg{1, {{p3, kFixedSync}}},
        "050101000000030000000409000000000000000700000000000000020000000200"
        "000001000000030000000200000001000000050000000000000003000000090000"
        "0000000000020000000100000004000000000000000300000002000000000000"
        "00"},
    WireType<membership::wire::StartChange>{
        "MembershipStartChange", 6,
        [](Rng& r) {
          membership::wire::StartChange sc;
          sc.cid = StartChangeId{r.next_u64() % 1000};
          std::set<ProcessId> set;
          for (int k = static_cast<int>(r.next_in(1, 8)); k > 0; --k) {
            set.insert(random_process(r));
          }
          sc.set = std::move(set);
          return sc;
        },
        membership::wire::StartChange{StartChangeId{9}, {p1, p3}},
        "100900000000000000020000000100000003000000"},
    WireType<membership::wire::ViewDelivery>{
        "MembershipViewDelivery", 7,
        [](Rng& r) { return membership::wire::ViewDelivery{random_view(r)}; },
        membership::wire::ViewDelivery{fixed_view()},
        "11070000000000000002000000020000000100000003000000020000000100000"
        "00500000000000000030000000900000000000000"},
    WireType<membership::wire::ViewDelta>{
        "MembershipViewDelta", 61,
        [](Rng& r) {
          const auto [base, next] = random_churn(r);
          return membership::wire::ViewDelta::diff(base, next);
        },
        membership::wire::ViewDelta{ViewId{8, 2}, ViewId{7, 2}, 1, {p1},
                                    {{p4, StartChangeId{1}}},
                                    {{p3, StartChangeId{12}}}},
        "150800000000000000020000000700000000000000020000000100000000000000"
        "01000000010000000100000004000000010000000000000001000000030000000c"
        "00000000000000"},
    WireType<membership::wire::Proposal>{
        "MembershipProposal", 8,
        [](Rng& r) {
          membership::wire::Proposal p;
          p.from = ServerId{static_cast<std::uint32_t>(r.next_below(8))};
          p.round = r.next_u64() % 10000;
          std::set<ProcessId> local_alive;
          std::map<ProcessId, StartChangeId> cids;
          for (int k = static_cast<int>(r.next_in(0, 6)); k > 0; --k) {
            const ProcessId q = random_process(r);
            local_alive.insert(q);
            cids[q] = StartChangeId{r.next_u64() % 100};
          }
          std::set<ServerId> participants;
          for (int k = static_cast<int>(r.next_in(1, 4)); k > 0; --k) {
            participants.insert(
                ServerId{static_cast<std::uint32_t>(r.next_below(8))});
          }
          p.local_alive = local_alive;
          p.cids = {cids.begin(), cids.end()};
          p.participants = {participants.begin(), participants.end()};
          return p;
        },
        membership::wire::Proposal{ServerId{1}, 8, {p1, p3},
                                   {{p1, StartChangeId{5}}},
                                   {ServerId{0}, ServerId{1}}},
        "120100000008000000000000000200000001000000030000000100000001000000"
        "0500000000000000020000000000000001000000"},
    WireType<membership::wire::Heartbeat>{
        "MembershipHeartbeat", 11,
        [](Rng& r) {
          return membership::wire::Heartbeat{
              r.chance(0.5), static_cast<std::uint32_t>(r.next_u64()),
              r.next_u64()};
        },
        membership::wire::Heartbeat{true, 3, 77},
        "1301030000004d00000000000000"},
    WireType<membership::wire::Leave>{
        "MembershipLeave", 12,
        [](Rng& r) { return membership::wire::Leave{random_process(r)}; },
        membership::wire::Leave{p3}, "1403000000"},
    WireType<baseline::wire::AgreeMsg>{
        "BaselineAgreeMsg", 13,
        [](Rng& r) { return baseline::wire::AgreeMsg{random_view(r).id}; },
        baseline::wire::AgreeMsg{ViewId{8, 2}},
        "20080000000000000002000000"},
    WireType<baseline::wire::SyncMsg>{
        "BaselineSyncMsg", 14,
        [](Rng& r) {
          baseline::wire::SyncMsg m;
          m.target = random_view(r).id;
          m.view = random_view(r);
          m.cut = random_cut(r, m.view);
          return m;
        },
        baseline::wire::SyncMsg{ViewId{8, 2}, fixed_view(), {{p1, 4}}},
        "210800000000000000020000000700000000000000020000000200000001000000"
        "030000000200000001000000050000000000000003000000090000000000000001"
        "000000010000000400000000000000"},
};

template <class F>
void for_each_wire_type(F&& f) {
  std::apply([&f](const auto&... row) { (f(row), ...); }, kWireTypes);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

template <class T>
void random_round_trips(const WireType<T>& row) {
  Rng rng(row.seed);
  for (int i = 0; i < 50; ++i) {
    const T value = row.random(rng);
    Encoder enc;
    codec::encode(value, enc);
    EXPECT_EQ(codec::wire_size(value), enc.size());
    Decoder dec(enc.bytes());
    EXPECT_EQ(codec::decode<T>(dec), value);
    EXPECT_TRUE(dec.done());
  }
}

template <class T>
class RowTest : public testing::Test {
 public:
  explicit RowTest(const WireType<T>& row) : row_(row) {}
  void TestBody() override { random_round_trips(row_); }

 private:
  const WireType<T>& row_;
};

const bool kRowTestsRegistered = [] {
  for_each_wire_type([](const auto& row) {
    testing::RegisterTest("Codec", row.name, nullptr, nullptr, __FILE__,
                          __LINE__, [&row]() -> testing::Test* {
                            return new RowTest(row);
                          });
  });
  return true;
}();

TEST(Codec, GoldenBytes) {
  // The encoding of every struct's fixed instance, byte for byte: a change
  // here is a wire-format change, and it moves every byte counter with it.
  for_each_wire_type([](const auto& row) {
    using T = typename std::remove_cvref_t<decltype(row)>::Type;
    Encoder enc;
    codec::encode(row.fixed, enc);
    EXPECT_EQ(hex(enc.bytes()), row.golden) << row.name;
    EXPECT_EQ(codec::wire_size(row.fixed), enc.size()) << row.name;
    Decoder dec(enc.bytes());
    EXPECT_EQ(codec::decode<T>(dec), row.fixed) << row.name;
  });
}

TEST(Codec, TagsAreDistinct) {
  std::set<std::uint8_t> tags;
  std::size_t tagged = 0;
  for_each_wire_type([&](const auto& row) {
    using T = typename std::remove_cvref_t<decltype(row)>::Type;
    if constexpr (codec::Tagged<T>) {
      ++tagged;
      EXPECT_NE(static_cast<std::uint8_t>(T::kTag), 0u) << row.name;
      tags.insert(static_cast<std::uint8_t>(T::kTag));
    }
  });
  EXPECT_EQ(tagged, 13u) << "every message but View and AppMsg is tagged";
  EXPECT_EQ(tags.size(), tagged);
}

TEST(Codec, WrongTagIsRejected) {
  // A top-level tag and the tag of every nested SyncMsg in an aggregate are
  // checked: a forged byte fails cleanly instead of being skipped.
  Encoder enc;
  codec::encode(gcs::wire::AggregateSyncMsg{1, {{p3, kFixedSync}}}, enc);
  const std::vector<std::uint8_t>& good = enc.bytes();
  // tag(1) + hops(1) + count(4) + process(4), then the inner SyncMsg tag.
  for (std::size_t at : {std::size_t{0}, std::size_t{10}}) {
    std::vector<std::uint8_t> forged = good;
    forged[at] = static_cast<std::uint8_t>(gcs::wire::Tag::kViewMsg);
    Decoder dec(forged);
    EXPECT_THROW(codec::decode<gcs::wire::AggregateSyncMsg>(dec), DecodeError)
        << "forged tag at byte " << at;
  }
  Decoder dec(good);
  EXPECT_THROW(codec::decode<gcs::wire::SyncMsg>(dec), DecodeError)
      << "an AggregateSyncMsg is not a SyncMsg";
}

/// A View's bytes with the given members (a set) and start_id keys (a map),
/// written raw so that duplicate and descending keys can be forged.
std::vector<std::uint8_t> raw_view(const std::vector<ProcessId>& members,
                                   const std::vector<ProcessId>& keys) {
  Encoder enc;
  enc.put_view_id(ViewId{7, 1});
  enc.put_u32(static_cast<std::uint32_t>(members.size()));
  for (ProcessId p : members) enc.put_process(p);
  enc.put_u32(static_cast<std::uint32_t>(keys.size()));
  for (ProcessId p : keys) {
    enc.put_process(p);
    enc.put_start_change_id(StartChangeId{2});
  }
  return enc.bytes();
}

// A duplicate or descending key used to decode to a message whose
// re-encoding has other bytes (a set deduplicated, a map kept the last
// value); the decoders now refuse both.
TEST(Codec, SetElementsMustStrictlyAscend) {
  const std::vector<std::uint8_t> ok = raw_view({p1, p3}, {p1, p3});
  Decoder ok_dec(ok);
  EXPECT_NO_THROW(codec::decode<View>(ok_dec));
  for (const auto& members : {std::vector{p1, p1}, std::vector{p3, p1}}) {
    const std::vector<std::uint8_t> bytes = raw_view(members, {p1, p3});
    Decoder dec(bytes);
    EXPECT_THROW(codec::decode<View>(dec), DecodeError);
  }
}

TEST(Codec, MapKeysMustStrictlyAscend) {
  for (const auto& keys : {std::vector{p1, p1}, std::vector{p3, p1}}) {
    const std::vector<std::uint8_t> bytes = raw_view({p1, p3}, keys);
    Decoder dec(bytes);
    EXPECT_THROW(codec::decode<View>(dec), DecodeError);
  }
}

TEST(Codec, SyncMsgCutSendersMustStrictlyAscend) {
  // The cut is a flat vector that encodes as a map, so its decoder checks
  // the map's key order, for the paper's and the baseline's sync message.
  const gcs::wire::Cut forged[] = {{{p1, 4}, {p1, 5}}, {{p3, 4}, {p1, 5}}};
  for (const gcs::wire::Cut& cut : forged) {
    gcs::wire::SyncMsg sync = kFixedSync;
    sync.cut = cut;
    Encoder enc;
    codec::encode(sync, enc);
    Decoder dec(enc.bytes());
    EXPECT_THROW(codec::decode<gcs::wire::SyncMsg>(dec), DecodeError);

    const baseline::wire::SyncMsg base{ViewId{8, 2}, fixed_view(), cut};
    Encoder base_enc;
    codec::encode(base, base_enc);
    Decoder base_dec(base_enc.bytes());
    EXPECT_THROW(codec::decode<baseline::wire::SyncMsg>(base_dec),
                 DecodeError);
  }
}

TEST(Codec, ProposalKeysMustStrictlyAscend) {
  // The proposal's three sets are flat bodies that encode as a std::set, a
  // std::map and a std::set, so each decodes only in their key order.
  const membership::wire::Proposal fixed{ServerId{1}, 8, {p1, p3},
                                         {{p1, StartChangeId{5}}},
                                         {ServerId{0}, ServerId{1}}};
  std::vector<membership::wire::Proposal> forged(6, fixed);
  forged[0].local_alive = ProcessSet(ProcessSet::Ids{p1, p1});
  forged[1].local_alive = ProcessSet(ProcessSet::Ids{p3, p1});
  forged[2].cids = {{p1, StartChangeId{5}}, {p1, StartChangeId{6}}};
  forged[3].cids = {{p3, StartChangeId{5}}, {p1, StartChangeId{6}}};
  forged[4].participants = {ServerId{1}, ServerId{1}};
  forged[5].participants = {ServerId{1}, ServerId{0}};
  for (const membership::wire::Proposal& prop : forged) {
    Encoder enc;
    codec::encode(prop, enc);
    Decoder dec(enc.bytes());
    EXPECT_THROW(codec::decode<membership::wire::Proposal>(dec), DecodeError);
  }
}

TEST(Codec, ViewDeltaDiffApplyReconstructsView) {
  Rng rng(63);
  for (int i = 0; i < 50; ++i) {
    const auto [base, next] = random_churn(rng);
    const auto delta = membership::wire::ViewDelta::diff(base, next);
    const std::optional<View> applied = delta.apply(base);
    ASSERT_TRUE(applied.has_value());
    EXPECT_EQ(*applied, next);
  }
}

TEST(Codec, ViewDeltaForgedRejection) {
  Rng rng(62);
  View base = random_view(rng);
  base.id = ViewId{5, 0};
  View next = base;
  next.id = ViewId{6, 0};
  const auto delta = membership::wire::ViewDelta::diff(base, next);

  // apply() against the wrong base: rejected, never a garbage view.
  View other = base;
  other.id = ViewId{4, 0};
  EXPECT_FALSE(delta.apply(other).has_value());

  // A leave for a process that is not a member of the base.
  {
    auto forged = delta;
    forged.leaves.insert(ProcessId{9999});
    EXPECT_FALSE(forged.apply(base).has_value());
  }
  // A join for a process that already is a member.
  {
    auto forged = delta;
    forged.joins[*base.members().begin()] = StartChangeId{1};
    EXPECT_FALSE(forged.apply(base).has_value());
  }
  // A start-id exception for a process outside the view.
  {
    auto forged = delta;
    forged.exceptions[ProcessId{9999}] = StartChangeId{1};
    EXPECT_FALSE(forged.apply(base).has_value());
  }
  // A delta that removes everyone cannot produce an empty view.
  {
    auto forged = delta;
    forged.joins.clear();
    forged.leaves = {base.members().begin(), base.members().end()};
    EXPECT_FALSE(forged.apply(base).has_value());
  }

  // Wire-level rejection by validate(): non-advancing id, overlapping
  // joins/leaves; and every truncation fails cleanly with DecodeError.
  {
    auto forged = delta;
    forged.base = forged.id;  // base must be < id
    Encoder enc;
    codec::encode(forged, enc);
    Decoder dec(enc.bytes());
    EXPECT_THROW(codec::decode<membership::wire::ViewDelta>(dec), DecodeError);
  }
  {
    auto forged = delta;
    const ProcessId p = *base.members().begin();
    forged.leaves.insert(p);
    forged.joins[p] = StartChangeId{1};
    Encoder enc;
    codec::encode(forged, enc);
    Decoder dec(enc.bytes());
    EXPECT_THROW(codec::decode<membership::wire::ViewDelta>(dec), DecodeError);
  }
  {
    auto populated = delta;
    populated.leaves.insert(ProcessId{7});
    populated.joins[ProcessId{300}] = StartChangeId{3};
    populated.exceptions[*base.members().begin()] = StartChangeId{11};
    Encoder enc;
    codec::encode(populated, enc);
    const auto& full = enc.bytes();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(
          full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
      Decoder dec(prefix);
      EXPECT_THROW(codec::decode<membership::wire::ViewDelta>(dec),
                   DecodeError)
          << "prefix of " << cut << " bytes decoded without error";
    }
  }
}

TEST(Codec, WireSizeMatchesEncodedSizeForViewCarriers) {
  // Full-view carriers at scale: the server compares these sizes against
  // a ViewDelta's to pick the smaller form, so they must be exact at any N
  // (View = id 12 + members 4 + 4n + start_id 4 + 12n).
  for (std::uint32_t n : {1u, 64u, 1024u}) {
    std::set<ProcessId> members;
    std::map<ProcessId, StartChangeId> start_id;
    for (std::uint32_t i = 0; i < n; ++i) {
      members.insert(ProcessId{i});
      start_id[ProcessId{i}] = StartChangeId{i};
    }
    const View v(ViewId{n, 1}, std::move(members), std::move(start_id));
    const std::size_t view_bytes = 12 + 4 + 4 * n + 4 + 12 * n;
    EXPECT_EQ(codec::wire_size(v), view_bytes);
    const gcs::wire::ViewMsg vm{v};
    const membership::wire::ViewDelivery vd{v};
    EXPECT_EQ(codec::wire_size(vm), 1 + view_bytes);
    EXPECT_EQ(codec::wire_size(vd), 1 + view_bytes);
    Encoder enc;
    codec::encode(vd, enc);
    EXPECT_EQ(enc.size(), 1 + view_bytes);
  }
}

TEST(Codec, EncoderReserveNeverChangesEncoding) {
  // reserve() is a pure capacity hint; the byte stream must be identical
  // with and without it, for any mix of scalar and bulk appends.
  Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    const View v = random_view(rng);
    const std::string s = random_payload(rng);
    Encoder plain;
    Encoder hinted;
    hinted.reserve(1 + 8 + 4 + 4 + 4 * v.members().size() + 4 + s.size());
    for (Encoder* e : {&plain, &hinted}) {
      e->put_u8(0x7e);
      e->put_view_id(v.id);
      codec::Field<ProcessSet::Ids>::put(*e, v.members().ids());
      e->put_string(s);
    }
    ASSERT_EQ(plain.bytes(), hinted.bytes()) << "round " << round;
    Decoder dec(hinted.bytes());
    EXPECT_EQ(dec.get_u8(), 0x7e);
    EXPECT_EQ(dec.get_view_id(), v.id);
    EXPECT_EQ(codec::Field<std::set<ProcessId>>::get(dec), v.members());
    EXPECT_EQ(dec.get_string(), s);
    EXPECT_TRUE(dec.done());
  }
}

// --------------------------------------------------------------------------
// Transport frame codec (DESIGN.md §11): packed-frame round-trips and
// adversarial truncated / forged-count inputs. Decoding must fail cleanly
// via Decoder::need() (DecodeError), never read out of bounds, and never let
// a forged entry count drive an unbounded allocation.
// --------------------------------------------------------------------------

transport::wire::EncodedFrame random_frame(Rng& rng, std::size_t entries) {
  transport::wire::EncodedFrame f;
  f.header.flags = static_cast<std::uint8_t>(rng.next_below(4));
  f.header.incarnation = rng.next_u64();
  f.header.first_seq = 1 + rng.next_u64() % 1000;
  f.header.base_seq = f.header.first_seq + rng.next_u64() % 100;
  f.header.ack_incarnation = rng.next_u64();
  f.header.ack_seq = rng.next_u64() % 5000;
  for (std::size_t i = 0; i < entries; ++i) {
    std::vector<std::uint8_t> p(rng.next_below(48));
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_below(256));
    f.payloads.push_back(std::move(p));
  }
  return f;
}

TEST(FrameCodec, PackedFrameRoundTrip) {
  Rng rng(11);
  for (std::size_t entries : {0u, 1u, 2u, 7u, 64u}) {
    const auto f = random_frame(rng, entries);
    Encoder enc;
    f.encode(enc);
    Decoder dec(enc.bytes());
    const auto back = transport::wire::EncodedFrame::decode(dec);
    EXPECT_EQ(back.payloads, f.payloads);
    EXPECT_EQ(back.header.incarnation, f.header.incarnation);
    EXPECT_EQ(back.header.base_seq, f.header.base_seq);
    EXPECT_EQ(back.header.ack_seq, f.header.ack_seq);
    EXPECT_EQ(back.header.count, entries);
    EXPECT_TRUE(dec.done());
  }
}

TEST(FrameCodec, HeaderOnlyAckFrameRoundTrip) {
  transport::wire::EncodedFrame ack;
  ack.header.flags = transport::wire::kFlagHasAck;
  ack.header.ack_incarnation = 7;
  ack.header.ack_seq = 41;
  Encoder enc;
  ack.encode(enc);
  Decoder dec(enc.bytes());
  const auto back = transport::wire::EncodedFrame::decode(dec);
  EXPECT_EQ(back, ack);
  EXPECT_TRUE(dec.done());
}

TEST(FrameCodec, GroupTagAndSackRoundTrip) {
  Rng rng(14);
  for (int i = 0; i < 20; ++i) {
    auto f = random_frame(rng, rng.next_below(4));
    f.header.count = static_cast<std::uint32_t>(f.payloads.size());
    f.header.group = static_cast<std::uint32_t>(rng.next_below(3) == 0
                                                    ? 0
                                                    : 1 + rng.next_below(100));
    if (rng.next_below(2) == 0) {
      std::uint64_t lo = 1 + rng.next_u64() % 50;
      for (std::size_t r = 0; r < 1 + rng.next_below(5); ++r) {
        const std::uint64_t hi = lo + rng.next_below(4);
        f.header.sack.insert_run(lo, hi);
        lo = hi + 2 + rng.next_below(8);  // keep runs maximal
      }
    }
    Encoder enc;
    f.encode(enc);
    Decoder dec(enc.bytes());
    const auto back = transport::wire::EncodedFrame::decode(dec);
    // The presence flags are derived on encode and stripped on decode, so
    // the whole struct compares equal — group-0 / empty-sack frames pay
    // zero extra bytes.
    EXPECT_EQ(back, f);
    EXPECT_TRUE(dec.done());
  }
}

TEST(FrameCodec, ForgedGroupAndSackAreRejected) {
  // A set presence flag with a zero group tag (or an empty sack) is a forged
  // frame: honest encoders only set the flag when the field is non-trivial.
  {
    transport::wire::FrameHeader h;
    h.flags = transport::wire::kFlagHasGroup;
    Encoder enc;
    h.encode(enc);
    auto bytes = enc.bytes();
    bytes.resize(bytes.size() + transport::wire::kGroupTagBytes, 0);
    Decoder dec(bytes);
    EXPECT_THROW(transport::wire::EncodedFrame::decode(dec), DecodeError);
  }
  {
    transport::wire::FrameHeader h;
    h.flags = transport::wire::kFlagHasSack;
    Encoder enc;
    h.encode(enc);
    auto bytes = enc.bytes();
    bytes.resize(bytes.size() + 4, 0);  // sack run count = 0
    Decoder dec(bytes);
    EXPECT_THROW(transport::wire::EncodedFrame::decode(dec), DecodeError);
  }
  // Non-maximal (abutting) runs and inverted runs are rejected by the
  // interval-set decoder, so a malicious sack cannot desync peers.
  {
    transport::wire::EncodedFrame f;
    f.header.sack.insert_run(5, 9);
    Encoder enc;
    f.encode(enc);
    auto bytes = enc.bytes();
    EXPECT_THROW(
        {
          // Flip the run to [9, 5] in place: the single (lo, hi) u64 pair is
          // the last 16 bytes of the encoding.
          std::vector<std::uint8_t> forged = bytes;
          const std::size_t base = forged.size() - 16;
          for (std::size_t k = 0; k < 8; ++k) {
            std::swap(forged[base + k], forged[base + 8 + k]);
          }
          Decoder dec(forged);
          transport::wire::EncodedFrame::decode(dec);
        },
        DecodeError);
  }
}

TEST(FrameCodec, EveryTruncationFailsCleanly) {
  Rng rng(12);
  const auto f = random_frame(rng, 5);
  Encoder enc;
  f.encode(enc);
  const std::vector<std::uint8_t>& full = enc.bytes();
  // Any strict prefix is missing header bytes, a length prefix, or payload
  // bytes: decode must throw DecodeError, never read past the buffer.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() + static_cast<std::ptrdiff_t>(cut));
    Decoder dec(prefix);
    EXPECT_THROW(transport::wire::EncodedFrame::decode(dec), DecodeError)
        << "prefix of " << cut << " bytes decoded without error";
  }
}

TEST(FrameCodec, OversizedEntryCountIsRejected) {
  transport::wire::FrameHeader h;
  h.count = static_cast<std::uint32_t>(transport::wire::kMaxFrameEntries + 1);
  Encoder enc;
  h.encode(enc);
  Decoder dec(enc.bytes());
  EXPECT_THROW(transport::wire::EncodedFrame::decode(dec), DecodeError);
}

TEST(FrameCodec, ForgedCountWithNoPayloadBytesFailsWithoutHugeAlloc) {
  // count claims the maximum but no payload bytes follow: the reserve is
  // clamped by the bytes actually remaining, and decode fails at entry 0.
  transport::wire::FrameHeader h;
  h.count = static_cast<std::uint32_t>(transport::wire::kMaxFrameEntries);
  Encoder enc;
  h.encode(enc);
  Decoder dec(enc.bytes());
  EXPECT_THROW(transport::wire::EncodedFrame::decode(dec), DecodeError);
}

TEST(Codec, BytesBlobRoundTrip) {
  Rng rng(13);
  for (std::size_t n : {0u, 1u, 63u, 1024u}) {
    std::vector<std::uint8_t> blob(n);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
    Encoder enc;
    enc.put_bytes(blob);
    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.get_bytes(), blob);
    EXPECT_TRUE(dec.done());
  }
}

}  // namespace
}  // namespace vsgc
