#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bitset.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"

namespace fairclique {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() { return Status::IOError("disk gone"); };
  auto outer = [&]() -> Status {
    FAIRCLIQUE_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsIOError());
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t x = rng.NextInRange(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    lo_seen |= x == -2;
    hi_seen |= x == 2;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.NextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(RngTest, SampleDistinctProducesDistinctInRange) {
  Rng rng(13);
  for (uint64_t n : {10ull, 100ull, 1000ull}) {
    for (uint64_t c : std::vector<uint64_t>{0, 1, n / 2, n}) {
      std::vector<uint64_t> sample = rng.SampleDistinct(n, c);
      EXPECT_EQ(sample.size(), c);
      std::set<uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), c);
      for (uint64_t x : sample) EXPECT_LT(x, n);
    }
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------------------------------------------------------------- Bitset --

std::vector<size_t> SetBits(const Bitset& bs) {
  std::vector<size_t> out;
  bs.ForEachSetBit([&](size_t i) { out.push_back(i); });
  return out;
}

TEST(BitsetTest, SetTestResetRoundTrip) {
  Bitset bs(130);
  EXPECT_TRUE(SetBits(bs).empty());
  bs.Set(0);
  bs.Set(64);
  bs.Set(129);
  EXPECT_EQ(SetBits(bs), (std::vector<size_t>{0, 64, 129}));
  bs.Reset(64);
  EXPECT_EQ(SetBits(bs), (std::vector<size_t>{0, 129}));
}

TEST(BitsetTest, SetAllRespectsSize) {
  Bitset bs(70);
  bs.SetAll();
  std::vector<size_t> set = SetBits(bs);
  EXPECT_EQ(set.size(), 70u);
  EXPECT_EQ(set.back(), 69u);
}

TEST(BitsetTest, IntersectionAndDifference) {
  Bitset a(128), b(128), all(128);
  for (size_t i = 0; i < 128; i += 2) a.Set(i);
  for (size_t i = 0; i < 128; i += 3) b.Set(i);
  all.SetAll();
  std::vector<size_t> want_inter, want_diff;
  for (size_t i = 0; i < 128; ++i) {
    if (i % 6 == 0) want_inter.push_back(i);
    if (i % 2 == 0 && i % 3 != 0) want_diff.push_back(i);
  }
  Bitset inter(128);
  simd::DualCount dc = inter.AssignIntersectDual(a, b.words(), all);
  EXPECT_EQ(SetBits(inter), want_inter);
  EXPECT_EQ(dc.total, want_inter.size());
  EXPECT_EQ(dc.in_mask, want_inter.size());
  Bitset diff = a;
  diff -= b;
  EXPECT_EQ(SetBits(diff), want_diff);
}

TEST(BitsetTest, NextSetBitWalksAllBits) {
  Bitset bs(200);
  std::vector<size_t> set_bits{0, 63, 64, 65, 127, 128, 199};
  for (size_t i : set_bits) bs.Set(i);
  std::vector<size_t> walked;
  for (size_t i = bs.NextSetBit(0); i < bs.size(); i = bs.NextSetBit(i + 1)) {
    walked.push_back(i);
  }
  EXPECT_EQ(walked, set_bits);
}

TEST(BitsetTest, ForEachSetBitMatchesNextSetBit) {
  Bitset bs(97);
  for (size_t i = 1; i < 97; i *= 2) bs.Set(i);
  std::vector<size_t> collected;
  bs.ForEachSetBit([&](size_t i) { collected.push_back(i); });
  std::vector<size_t> expected{1, 2, 4, 8, 16, 32, 64};
  EXPECT_EQ(collected, expected);
}

TEST(BitsetTest, EmptyBitset) {
  Bitset bs;
  EXPECT_EQ(bs.size(), 0u);
  EXPECT_EQ(bs.NextSetBit(0), 0u);
  EXPECT_TRUE(SetBits(bs).empty());
  EXPECT_TRUE(bs.TailClean());
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, ElapsedIsMonotone) {
  WallTimer t;
  int64_t a = t.ElapsedMicros();
  int64_t b = t.ElapsedMicros();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline d(0.0);
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, TinyBudgetExpires) {
  Deadline d(1e-9);
  // Burn a little time.
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_TRUE(d.Expired());
}

}  // namespace
}  // namespace fairclique
