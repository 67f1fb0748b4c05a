// Unit tests: strong ids, deterministic RNG, binary codec, invariant macro.
#include <gtest/gtest.h>

#include <set>

#include "util/assert.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"
#include "util/wire_codec.hpp"

namespace vsgc {
namespace {

TEST(Ids, ProcessOrderingAndFormatting) {
  EXPECT_LT(ProcessId{1}, ProcessId{2});
  EXPECT_EQ(ProcessId{7}, ProcessId{7});
  EXPECT_EQ(to_string(ProcessId{3}), "p3");
  EXPECT_EQ(to_string(ServerId{0}), "s0");
}

TEST(Ids, StartChangeIdMonotone) {
  EXPECT_LT(StartChangeId::zero(), StartChangeId{1});
  EXPECT_EQ(to_string(StartChangeId{5}), "cid:5");
}

TEST(Ids, ViewIdLexicographic) {
  EXPECT_LT(ViewId::zero(), (ViewId{1, 0}));
  EXPECT_LT((ViewId{1, 5}), (ViewId{2, 0}));  // epoch dominates
  EXPECT_LT((ViewId{2, 0}), (ViewId{2, 1}));  // origin breaks ties
  EXPECT_EQ(to_string(ViewId{3, 1}), "v3.1");
}

TEST(Ids, HashDistinguishes) {
  const std::hash<ViewId> h;
  EXPECT_NE(h(ViewId{1, 0}), h(ViewId{0, 1}));
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(10), 10u);
    const auto v = r.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(11), b(11);
  Rng fa = a.fork(), fb = b.fork();
  EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Serialization, PrimitivesRoundTrip) {
  Encoder enc;
  enc.put_u8(0xab);
  enc.put_u32(0xdeadbeef);
  enc.put_u64(0x0123456789abcdefULL);
  enc.put_i64(-42);
  enc.put_string("hello world");
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u8(), 0xab);
  EXPECT_EQ(dec.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.get_i64(), -42);
  EXPECT_EQ(dec.get_string(), "hello world");
  EXPECT_TRUE(dec.done());
}

TEST(Serialization, IdsAndSetsRoundTrip) {
  Encoder enc;
  enc.put_process(ProcessId{9});
  enc.put_start_change_id(StartChangeId{77});
  enc.put_view_id(ViewId{5, 2});
  const std::set<ProcessId> set{ProcessId{1}, ProcessId{3}, ProcessId{8}};
  codec::Field<std::set<ProcessId>>::put(enc, set);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_process(), ProcessId{9});
  EXPECT_EQ(dec.get_start_change_id(), StartChangeId{77});
  EXPECT_EQ(dec.get_view_id(), (ViewId{5, 2}));
  EXPECT_EQ(codec::Field<std::set<ProcessId>>::get(dec), set);
  EXPECT_TRUE(dec.done());
}

TEST(Serialization, UnderrunThrows) {
  Encoder enc;
  enc.put_u8(1);
  Decoder dec(enc.bytes());
  dec.get_u8();
  EXPECT_THROW(dec.get_u32(), DecodeError);
}

TEST(Serialization, EmptyStringAndSet) {
  Encoder enc;
  enc.put_string("");
  codec::Field<std::set<ProcessId>>::put(enc, {});
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string(), "");
  EXPECT_TRUE(codec::Field<std::set<ProcessId>>::get(dec).empty());
}

TEST(Assert, RequireThrowsWithMessage) {
  try {
    VSGC_REQUIRE(1 == 2, "context " << 42);
    FAIL() << "expected throw";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Assert, RequirePassesSilently) {
  EXPECT_NO_THROW(VSGC_REQUIRE(true, "never"));
}

}  // namespace
}  // namespace vsgc
