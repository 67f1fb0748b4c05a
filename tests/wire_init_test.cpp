// Regression tests for the wire-init lint rule's code fixes: every struct in
// src/gcs/messages.hpp and src/membership/wire.hpp now carries in-class
// member initializers, so a default-constructed message is fully determinate
// and must survive an encode/decode round trip unchanged. codec_test.cpp
// sweeps randomized *populated* messages; this file pins down the
// default/empty corner those sweeps rarely hit (empty sets, zero ids,
// zero-entry aggregate batches).
#include <gtest/gtest.h>

#include "gcs/messages.hpp"
#include "membership/wire.hpp"

namespace vsgc {
namespace {

template <typename T>
void round_trip_default() {
  const T value{};
  Encoder enc;
  codec::encode(value, enc);
  Decoder dec(enc.bytes());
  const T back = codec::decode<T>(dec);
  EXPECT_EQ(value, back);
  EXPECT_TRUE(dec.done());
}

TEST(WireInit, GcsMessagesDefaultRoundTrip) {
  round_trip_default<gcs::wire::ViewMsg>();
  round_trip_default<gcs::wire::AppMsgWire>();
  round_trip_default<gcs::wire::FwdMsg>();
  round_trip_default<gcs::wire::SyncMsg>();
  round_trip_default<gcs::wire::AggregateSyncMsg>();
}

TEST(WireInit, MembershipMessagesDefaultRoundTrip) {
  round_trip_default<membership::wire::StartChange>();
  round_trip_default<membership::wire::ViewDelivery>();
  round_trip_default<membership::wire::Proposal>();
  round_trip_default<membership::wire::Heartbeat>();
  round_trip_default<membership::wire::Leave>();
}

// ViewDelta's validate() check (base < id) excludes the default value by
// design: a default-constructed delta still encodes deterministically (its
// fields are value-initialized), but decoding it must fail cleanly rather
// than admit a self-referential chain link.
TEST(WireInit, DefaultViewDeltaIsDeterminateButUndecodable) {
  const membership::wire::ViewDelta a{}, b{};
  EXPECT_EQ(a, b);
  Encoder ea, eb;
  codec::encode(a, ea);
  codec::encode(b, eb);
  EXPECT_EQ(ea.bytes(), eb.bytes());
  Decoder dec(ea.bytes());
  EXPECT_THROW(codec::decode<membership::wire::ViewDelta>(dec), DecodeError);
}

// The initializers must produce *value*-initialized fields: two separately
// default-constructed messages are equal and encode to identical bytes.
TEST(WireInit, DefaultConstructionIsDeterminate) {
  const gcs::wire::SyncMsg a{}, b{};
  EXPECT_EQ(a, b);
  Encoder ea, eb;
  codec::encode(a, ea);
  codec::encode(b, eb);
  EXPECT_EQ(ea.bytes(), eb.bytes());

  const membership::wire::Proposal pa{}, pb{};
  EXPECT_EQ(pa, pb);
  EXPECT_EQ(pa.round, 0u);
  EXPECT_EQ(pa.from.value, 0u);
}

}  // namespace
}  // namespace vsgc
