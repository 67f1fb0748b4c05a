// Unit tests: strong ids, deterministic RNG, binary codec, invariant macro,
// the flat per-peer table and the ring queue.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/flat_table.hpp"
#include "util/ids.hpp"
#include "util/ring_queue.hpp"
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

// --- FlatTable and RingQueue (DESIGN.md §11.6) ----------------------------

TEST(FlatTable, FindsEveryKeyAcrossGrowthInInsertionOrder) {
  // Keys a power of two apart share their low bits; the hash must still
  // spread them, and every growth must keep each key at its slot.
  util::FlatTable<std::uint32_t, int> t;
  EXPECT_EQ(t.capacity_bytes(), 0u) << "nothing held before the first insert";
  EXPECT_EQ(t.find(7), t.kNone);
  std::vector<std::uint32_t> keys;
  for (std::uint32_t i = 0; i < 300; ++i) {
    keys.push_back((i % 3) << 24 | i << 8);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto s = t.insert(keys[i]);
    EXPECT_EQ(s, i);
    t.at(s) = static_cast<int>(i);
    EXPECT_EQ(t.insert(keys[i]), s) << "a second insert finds the first";
  }
  ASSERT_EQ(t.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(t.find(keys[i]), i);
    EXPECT_EQ(t.key(static_cast<std::uint32_t>(i)), keys[i]);
  }
  EXPECT_EQ(t.find(1), t.kNone);
  std::size_t i = 0;
  for (const auto& [key, value] : t) {
    EXPECT_EQ(key, keys[i]);
    EXPECT_EQ(value, static_cast<int>(i));
    ++i;
  }
  // Capacity stays within twice the entries in use, index included.
  EXPECT_LE(t.capacity_bytes(),
            2 * keys.size() * (sizeof(std::uint32_t) + sizeof(int)) +
                4 * keys.size() * sizeof(std::uint32_t));
}

TEST(FlatTable, EraseIfReindexesAndClearReleases) {
  util::FlatTable<std::uint32_t, int> t;
  for (std::uint32_t k = 1; k <= 20; ++k) t[k] = static_cast<int>(k) * 10;
  t.erase_if([](const auto& e) { return e.key % 2 == 0; });
  ASSERT_EQ(t.size(), 10u);
  for (std::uint32_t k = 1; k <= 20; ++k) {
    const auto s = t.find(k);
    if (k % 2 == 0) {
      EXPECT_EQ(s, t.kNone) << k;
    } else {
      ASSERT_NE(s, t.kNone) << k;
      EXPECT_EQ(t.at(s), static_cast<int>(k) * 10);
    }
  }
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity_bytes(), 0u);
  EXPECT_EQ(t.find(1), t.kNone);
  t[3] = 1;
  EXPECT_EQ(t.find(3), 0u);
}

TEST(RingQueue, KeepsFifoOrderAcrossWrapAndGrowth) {
  util::RingQueue<int> q;
  EXPECT_EQ(q.capacity(), 0u) << "nothing is held before the first push";
  int next_in = 0, next_out = 0;
  // Interleave pushes and pops so the head wraps before each growth.
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 5; ++k) q.push_back(next_in++);
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
    ASSERT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
    for (std::size_t i = 0; i < q.size(); ++i) {
      ASSERT_EQ(q[i], next_out + static_cast<int>(i));
    }
    EXPECT_EQ(q.back(), next_in - 1);
  }
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap) << "clear keeps the capacity";
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
}

TEST(RingQueue, PopReleasesAndMoveEmptiesTheSource) {
  auto held = std::make_shared<int>(1);
  util::RingQueue<std::shared_ptr<int>> q;
  q.push_back(held);
  q.push_back(held);
  EXPECT_EQ(held.use_count(), 3);
  q.pop_front();
  EXPECT_EQ(held.use_count(), 2) << "a popped slot lets go of its value";
  util::RingQueue<std::shared_ptr<int>> moved(std::move(q));
  EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move): tested state
  EXPECT_EQ(q.capacity(), 0u);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved.front(), held);
  moved.clear();
  EXPECT_EQ(held.use_count(), 1) << "clear lets go of every value";
  using Queue = util::RingQueue<std::shared_ptr<int>>;
  static_assert(std::is_nothrow_move_constructible_v<Queue>);
}

}  // namespace
}  // namespace vsgc
