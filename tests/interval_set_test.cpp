// IntervalSet unit + fuzz coverage (DESIGN.md §13).
//
// The fuzz tests drive the run-length structure and a naive std::set oracle
// through the same randomized operation stream and require identical
// observable behaviour after every step: membership, count, run maximality,
// complement, cumulative trim, and wire round-trip. Any divergence between
// the O(log runs) structure and the O(n) oracle is a transport-ack bug
// waiting to happen.
#include "util/interval_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>

#include "util/serialization.hpp"

namespace vsgc::util {
namespace {

TEST(IntervalSet, InsertMergesAdjacentRuns) {
  IntervalSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_TRUE(s.insert(7));
  EXPECT_EQ(s.num_runs(), 2u);
  EXPECT_TRUE(s.insert(6));  // bridges [5,5] and [7,7]
  EXPECT_EQ(s.num_runs(), 1u);
  EXPECT_TRUE(s.contains_run(5, 7));
  EXPECT_FALSE(s.insert(6));  // duplicate
  EXPECT_EQ(s.count(), 3u);
}

TEST(IntervalSet, InsertRunCoalescesOverlaps) {
  IntervalSet s;
  EXPECT_EQ(s.insert_run(10, 20), 11u);
  EXPECT_EQ(s.insert_run(15, 25), 5u);   // right overlap
  EXPECT_EQ(s.insert_run(5, 9), 5u);     // left abut
  EXPECT_EQ(s.insert_run(5, 25), 0u);    // fully contained
  EXPECT_EQ(s.num_runs(), 1u);
  EXPECT_EQ(s.min(), 5u);
  EXPECT_EQ(s.max(), 25u);
  EXPECT_EQ(s.insert_run(1, 30), 9u);    // swallows everything
  EXPECT_EQ(s.num_runs(), 1u);
}

TEST(IntervalSet, NextMissingSkipsRuns) {
  IntervalSet s;
  s.insert_run(1, 4);
  s.insert_run(6, 9);
  EXPECT_EQ(s.next_missing(1), 5u);
  EXPECT_EQ(s.next_missing(5), 5u);
  EXPECT_EQ(s.next_missing(6), 10u);
  EXPECT_EQ(s.next_missing(11), 11u);
}

TEST(IntervalSet, EraseBelowSplitsRun) {
  IntervalSet s;
  s.insert_run(1, 10);
  s.insert_run(20, 30);
  s.erase_below(5);
  EXPECT_FALSE(s.contains(4));
  EXPECT_TRUE(s.contains_run(5, 10));
  s.erase_below(25);
  EXPECT_EQ(s.num_runs(), 1u);
  EXPECT_EQ(s.min(), 25u);
  s.erase_below(100);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, ComplementOfWindow) {
  IntervalSet s;
  s.insert_run(3, 5);
  s.insert_run(8, 8);
  const IntervalSet gaps = s.complement(1, 10);
  EXPECT_TRUE(gaps.contains_run(1, 2));
  EXPECT_TRUE(gaps.contains_run(6, 7));
  EXPECT_TRUE(gaps.contains_run(9, 10));
  EXPECT_EQ(gaps.count(), 6u);
  // Complement of the complement restores the interior.
  const IntervalSet back = gaps.complement(1, 10);
  EXPECT_EQ(back.count(), 4u);
  EXPECT_TRUE(back.contains_run(3, 5));
  EXPECT_TRUE(back.contains(8));
}

TEST(IntervalSet, DecodeRejectsForgedRuns) {
  // Inverted run.
  {
    Encoder enc;
    enc.put_u32(1);
    enc.put_u64(9);
    enc.put_u64(3);
    Decoder dec(enc.bytes());
    EXPECT_THROW(IntervalSet::decode(dec, 16), DecodeError);
  }
  // Non-maximal (adjacent) runs — an honest encoder always coalesces.
  {
    Encoder enc;
    enc.put_u32(2);
    enc.put_u64(1);
    enc.put_u64(4);
    enc.put_u64(5);
    enc.put_u64(9);
    Decoder dec(enc.bytes());
    EXPECT_THROW(IntervalSet::decode(dec, 16), DecodeError);
  }
  // Count above the cap.
  {
    Encoder enc;
    enc.put_u32(17);
    Decoder dec(enc.bytes());
    EXPECT_THROW(IntervalSet::decode(dec, 16), DecodeError);
  }
  // Truncated payload.
  {
    Encoder enc;
    enc.put_u32(2);
    enc.put_u64(1);
    enc.put_u64(4);
    Decoder dec(enc.bytes());
    EXPECT_THROW(IntervalSet::decode(dec, 16), DecodeError);
  }
}

/// Oracle: the same value set held in a plain std::set.
void expect_matches_oracle(const IntervalSet& s,
                           const std::set<std::uint64_t>& oracle,
                           std::uint64_t lo, std::uint64_t hi) {
  ASSERT_EQ(s.count(), oracle.size());
  // Runs must be maximal, ascending, and disjoint.
  std::uint64_t prev_hi = 0;
  bool first = true;
  for (const auto& [run_lo, run_hi] : s.runs()) {
    ASSERT_LE(run_lo, run_hi);
    if (!first) {
      ASSERT_GT(run_lo, prev_hi + 1) << "runs not maximal";
    }
    prev_hi = run_hi;
    first = false;
  }
  for (std::uint64_t v = lo; v <= hi; ++v) {
    ASSERT_EQ(s.contains(v), oracle.contains(v)) << "value " << v;
  }
}

TEST(IntervalSetFuzz, MatchesNaiveOracle) {
  std::mt19937_64 rng(20260807ull);
  constexpr std::uint64_t kLo = 0, kHi = 160;
  for (int round = 0; round < 40; ++round) {
    IntervalSet s;
    std::set<std::uint64_t> oracle;
    for (int step = 0; step < 300; ++step) {
      const auto op = rng() % 6;
      if (op <= 1) {  // single insert
        const std::uint64_t v = kLo + rng() % (kHi - kLo + 1);
        const bool added = s.insert(v);
        EXPECT_EQ(added, oracle.insert(v).second);
      } else if (op == 2) {  // run insert
        std::uint64_t a = kLo + rng() % (kHi - kLo + 1);
        std::uint64_t b = kLo + rng() % (kHi - kLo + 1);
        if (a > b) std::swap(a, b);
        std::uint64_t fresh = 0;
        for (std::uint64_t v = a; v <= b; ++v) fresh += oracle.insert(v).second;
        EXPECT_EQ(s.insert_run(a, b), fresh);
      } else if (op == 3) {  // cumulative trim
        const std::uint64_t v = kLo + rng() % (kHi - kLo + 1);
        s.erase_below(v);
        oracle.erase(oracle.begin(), oracle.lower_bound(v));
      } else if (op == 4) {  // next_missing probe
        const std::uint64_t from = kLo + rng() % (kHi - kLo + 1);
        std::uint64_t expect = from;
        while (oracle.contains(expect)) ++expect;
        EXPECT_EQ(s.next_missing(from), expect);
      } else {  // contains_run probe
        std::uint64_t a = kLo + rng() % (kHi - kLo + 1);
        std::uint64_t b = kLo + rng() % (kHi - kLo + 1);
        if (a > b) std::swap(a, b);
        bool all = true;
        for (std::uint64_t v = a; v <= b && all; ++v) all = oracle.contains(v);
        EXPECT_EQ(s.contains_run(a, b), all);
      }
    }
    expect_matches_oracle(s, oracle, kLo, kHi);

    // Complement agrees with the oracle's complement over the window.
    const IntervalSet gaps = s.complement(kLo, kHi);
    for (std::uint64_t v = kLo; v <= kHi; ++v) {
      ASSERT_EQ(gaps.contains(v), !oracle.contains(v)) << "value " << v;
    }

    // Wire round-trip is lossless and re-validates run shape.
    Encoder enc;
    s.encode(enc);
    Decoder dec(enc.bytes());
    const IntervalSet back =
        IntervalSet::decode(dec, static_cast<std::uint32_t>(s.num_runs()));
    EXPECT_TRUE(dec.done());
    EXPECT_EQ(back, s);
  }
}

}  // namespace
}  // namespace vsgc::util
