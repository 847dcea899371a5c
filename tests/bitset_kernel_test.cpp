// Differential coverage of the runtime-dispatched fused intersection
// kernel: every variant the build+CPU supports must be bit-exact against
// the scalar reference on word arrays straddling word and vector-lane
// boundaries, the Bitset wrapper must preserve the tail-clean invariant
// through every mutator, and the bitset search engine must return
// identical answers and node counts no matter which kernel variant it runs
// on.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "common/bitset.h"
#include "common/bitset_simd.h"
#include "core/max_fair_clique.h"
#include "core/prepared_graph.h"
#include "core/verifier.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::RandomAttributedGraph;

// Restores automatic kernel selection when a test scope ends, so an
// override never leaks into other tests in the binary.
struct KernelOverrideGuard {
  explicit KernelOverrideGuard(const char* name) {
    ok = simd::SetKernelOverride(name);
  }
  ~KernelOverrideGuard() { simd::SetKernelOverride(nullptr); }
  bool ok = false;
};

// Word counts straddling every interesting boundary: single word, the
// 64-bit word edge, the 256-bit AVX2 lane edge (4 words), the 128-bit NEON
// lane edge (2 words), and sizes far past kDispatchMinWords.
const size_t kWordCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 65};

std::vector<uint64_t> RandomWords(std::mt19937_64& rng, size_t n) {
  std::vector<uint64_t> w(n);
  for (auto& x : w) x = rng();
  return w;
}

std::vector<size_t> SetBits(const Bitset& b) {
  std::vector<size_t> out;
  b.ForEachSetBit([&](size_t i) { out.push_back(i); });
  return out;
}

TEST(BitsetKernelTest, AllVariantsMatchScalarReference) {
  const simd::Kernels& ref = simd::Scalar();
  for (const std::string& name : simd::SupportedKernels()) {
    KernelOverrideGuard guard(name.c_str());
    ASSERT_TRUE(guard.ok) << name;
    const simd::Kernels& k = simd::Active();
    ASSERT_STREQ(k.name, name.c_str());
    std::mt19937_64 rng(0xfa17c11e);
    for (size_t n : kWordCounts) {
      for (int round = 0; round < 8; ++round) {
        std::vector<uint64_t> a = RandomWords(rng, n);
        std::vector<uint64_t> b = RandomWords(rng, n);
        std::vector<uint64_t> mask = RandomWords(rng, n);

        std::vector<uint64_t> d1(n, 0), d2(n, 0);
        simd::DualCount c1 =
            k.intersect_into_dual(d1.data(), a.data(), b.data(), mask.data(), n);
        simd::DualCount c2 = ref.intersect_into_dual(d2.data(), a.data(),
                                                     b.data(), mask.data(), n);
        EXPECT_EQ(d1, d2) << name << " dual dst n=" << n;
        EXPECT_EQ(c1.total, c2.total) << name << " dual total n=" << n;
        EXPECT_EQ(c1.in_mask, c2.in_mask) << name << " dual mask n=" << n;

        // dst aliasing a is part of the contract (the engine intersects
        // into the caller's scratch, which may be the accumulator).
        std::vector<uint64_t> x = a;
        simd::DualCount c3 = k.intersect_into_dual(x.data(), x.data(),
                                                   b.data(), mask.data(), n);
        EXPECT_EQ(x, d2) << name << " aliased dual n=" << n;
        EXPECT_EQ(c3.total, c2.total);
        EXPECT_EQ(c3.in_mask, c2.in_mask);
      }
    }
  }
}

TEST(BitsetKernelTest, ZerosAndOnesEdgeCases) {
  for (const std::string& name : simd::SupportedKernels()) {
    KernelOverrideGuard guard(name.c_str());
    ASSERT_TRUE(guard.ok) << name;
    const simd::Kernels& k = simd::Active();
    for (size_t n : kWordCounts) {
      const std::vector<uint64_t> zeros(n, 0), ones(n, ~0ULL);
      const uint64_t all = 64 * n;
      struct Case {
        const std::vector<uint64_t>& a;
        const std::vector<uint64_t>& b;
        const std::vector<uint64_t>& mask;
        uint64_t total, in_mask;
      };
      const Case cases[] = {{ones, ones, ones, all, all},
                            {ones, ones, zeros, all, 0},
                            {ones, zeros, ones, 0, 0},
                            {zeros, ones, ones, 0, 0},
                            {zeros, zeros, zeros, 0, 0}};
      for (const Case& c : cases) {
        // Stale destination contents must be overwritten, not merged.
        std::vector<uint64_t> dst(n, 0x5a5a5a5a5a5a5a5aULL);
        simd::DualCount dc = k.intersect_into_dual(
            dst.data(), c.a.data(), c.b.data(), c.mask.data(), n);
        EXPECT_EQ(dc.total, c.total) << name << " n=" << n;
        EXPECT_EQ(dc.in_mask, c.in_mask) << name << " n=" << n;
        EXPECT_EQ(dst, c.total == 0 ? zeros : ones) << name << " n=" << n;

        std::vector<uint64_t> x = c.a;  // dst aliasing a
        dc = k.intersect_into_dual(x.data(), x.data(), c.b.data(),
                                   c.mask.data(), n);
        EXPECT_EQ(x, dst) << name << " aliased n=" << n;
        EXPECT_EQ(dc.total, c.total) << name << " aliased n=" << n;
        EXPECT_EQ(dc.in_mask, c.in_mask) << name << " aliased n=" << n;
      }
    }
  }
}

// Bit-level check of the Bitset wrapper at sizes straddling the 63/64/65
// and 255/256/257 boundaries, for every variant.
TEST(BitsetKernelTest, BitsetOpsMatchAcrossVariants) {
  const size_t kBitSizes[] = {1,   63,  64,  65,  127, 128, 129,
                              255, 256, 257, 511, 512, 513, 1000};
  for (size_t bits : kBitSizes) {
    std::mt19937_64 rng(bits * 2654435761u);
    std::vector<bool> in_a(bits), in_b(bits), in_m(bits);
    for (size_t i = 0; i < bits; ++i) {
      in_a[i] = rng() & 1;
      in_b[i] = rng() & 1;
      in_m[i] = rng() & 1;
    }
    std::vector<size_t> want_and, want_diff;
    uint64_t want_in_mask = 0;
    size_t want_next = bits;
    for (size_t i = 0; i < bits; ++i) {
      if (in_a[i] && in_b[i]) {
        want_and.push_back(i);
        if (in_m[i]) ++want_in_mask;
      }
      if (in_a[i] && !in_b[i]) want_diff.push_back(i);
      if (in_a[i] && i >= bits / 2 && want_next == bits) want_next = i;
    }
    for (const std::string& name : simd::SupportedKernels()) {
      KernelOverrideGuard guard(name.c_str());
      Bitset a(bits), b(bits), mask(bits);
      for (size_t i = 0; i < bits; ++i) {
        if (in_a[i]) a.Set(i);
        if (in_b[i]) b.Set(i);
        if (in_m[i]) mask.Set(i);
      }
      Bitset t(bits);
      simd::DualCount dc = t.AssignIntersectDual(a, b.words(), mask);
      EXPECT_EQ(SetBits(t), want_and) << name << " bits=" << bits;
      EXPECT_EQ(dc.total, want_and.size()) << name << " bits=" << bits;
      EXPECT_EQ(dc.in_mask, want_in_mask) << name << " bits=" << bits;
      t = a;
      t -= b;
      EXPECT_EQ(SetBits(t), want_diff) << name << " bits=" << bits;
      EXPECT_TRUE(t.TailClean());
      EXPECT_EQ(a.NextSetBit(bits / 2), want_next) << name;
    }
  }
}

TEST(BitsetKernelTest, SetAllKeepsTailClean) {
  for (size_t bits : {1u, 63u, 64u, 65u, 127u, 129u, 255u, 257u}) {
    Bitset b(bits);
    b.SetAll();
    EXPECT_TRUE(b.TailClean());
    std::vector<size_t> set = SetBits(b);
    EXPECT_EQ(set.size(), bits);
    EXPECT_EQ(set.back(), bits - 1);
  }
}

TEST(BitsetKernelTest, NextSetBitMasksFinalWordExplicitly) {
  // Plant garbage beyond size() through the raw word view: NextSetBit must
  // not surface phantom positions even when the invariant is violated
  // mid-mutation (its contract is exactness regardless of tail state).
  Bitset b(65);
  ASSERT_EQ(b.num_words(), 2u);
  b.words()[1] = ~1ULL;  // bit 64 clear, bits 65..127 stale
  EXPECT_EQ(b.NextSetBit(0), 65u);   // == size(): nothing valid is set
  EXPECT_EQ(b.NextSetBit(64), 65u);
  b.words()[1] |= 1ULL;  // now bit 64 (valid) is set too
  EXPECT_EQ(b.NextSetBit(0), 64u);
  EXPECT_EQ(b.NextSetBit(65), 65u);  // from >= size
}

TEST(BitsetKernelTest, SearchAnswersIdenticalUnderEveryVariant) {
  struct Case {
    uint64_t seed;
    VertexId n;
    double density;
    int k, delta;
  };
  const Case cases[] = {{21, 40, 0.35, 2, 1},
                        {22, 60, 0.25, 2, 0},
                        {23, 80, 0.20, 3, 2},
                        {24, 120, 0.12, 2, 1}};
  for (const Case& c : cases) {
    AttributedGraph g = RandomAttributedGraph(c.n, c.density, c.seed);
    SearchOptions opts;
    opts.params = {c.k, c.delta};
    opts.engine = SearchEngine::kBitset;
    size_t ref_size = 0;
    uint64_t ref_nodes = 0;
    bool first = true;
    for (const std::string& name : simd::SupportedKernels()) {
      KernelOverrideGuard guard(name.c_str());
      ASSERT_TRUE(guard.ok);
      SearchResult r = FindMaximumFairClique(g, opts);
      if (!r.clique.empty()) {
        EXPECT_TRUE(
            VerifyFairClique(g, r.clique.vertices, opts.params).ok());
      }
      if (first) {
        ref_size = r.clique.size();
        ref_nodes = r.stats.nodes;
        first = false;
      } else {
        // Kernels differ only in instruction selection, so the whole
        // search trace — not just the answer — must be identical.
        EXPECT_EQ(r.clique.size(), ref_size) << name << " seed=" << c.seed;
        EXPECT_EQ(r.stats.nodes, ref_nodes) << name << " seed=" << c.seed;
      }
    }
    // And the vector engine agrees with all of them.
    opts.engine = SearchEngine::kVector;
    SearchResult rv = FindMaximumFairClique(g, opts);
    EXPECT_EQ(rv.clique.size(), ref_size) << "vector seed=" << c.seed;
    EXPECT_EQ(rv.stats.nodes, ref_nodes) << "vector seed=" << c.seed;
  }
}

TEST(BitsetKernelTest, EngineDecisionIsMemoryAware) {
  // Explicit choices pass through, with observability fields still filled.
  EngineDecision forced = ResolveEngineDecision(SearchEngine::kVector, 100);
  EXPECT_EQ(forced.engine, SearchEngine::kVector);
  EXPECT_GT(forced.arena_bytes, 0u);
  EXPECT_GT(forced.budget_bytes, 0u);

  // The budget floor (2 MiB) keeps everything the old fixed 4096-vertex
  // threshold accepted on the bitset engine: 4096 rows x 64 words x 8 bytes
  // is exactly 2 MiB.
  EngineDecision at_old_threshold =
      ResolveEngineDecision(SearchEngine::kAuto, 4096);
  EXPECT_EQ(at_old_threshold.arena_bytes, uint64_t{2} * 1024 * 1024);
  EXPECT_EQ(at_old_threshold.engine, SearchEngine::kBitset);
  EXPECT_GE(at_old_threshold.budget_bytes, uint64_t{2} * 1024 * 1024);

  // Far past any plausible budget (a 200k-vertex arena is ~5 GB), kAuto
  // must fall back to the vector engine.
  EngineDecision huge = ResolveEngineDecision(SearchEngine::kAuto, 200000);
  EXPECT_EQ(huge.engine, SearchEngine::kVector);
  EXPECT_GT(huge.arena_bytes, huge.budget_bytes);

  // Monotone: arena bytes never shrink with component size.
  uint64_t prev = 0;
  for (VertexId n : {16, 64, 65, 1024, 4096, 4097, 10000}) {
    EngineDecision d = ResolveEngineDecision(SearchEngine::kAuto, n);
    EXPECT_GE(d.arena_bytes, prev) << n;
    prev = d.arena_bytes;
  }
}

TEST(BitsetKernelTest, ArenaRowsAreAlignedAndPadded) {
  BitsetArena arena(37, 100);
  // 100 bits -> 2 words -> padded to a full cache line (8 words).
  EXPECT_EQ(BitsetArena::BytesFor(37, 100), 37u * 64u);
  EXPECT_EQ(arena.row(1) - arena.row(0), 8);
  for (size_t r = 0; r < 37; ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.row(r)) % 64, 0u) << r;
    for (size_t w = 0; w < 8; ++w) {
      EXPECT_EQ(arena.row(r)[w], 0u);
    }
  }
  arena.SetBit(3, 99);  // word 1, bit 35
  EXPECT_EQ(arena.row(3)[1], 1ULL << 35);
  EXPECT_EQ(arena.row(3)[0], 0u);
  arena.PrefetchRow(4);   // smoke: must be safe on any row
  arena.PrefetchRow(40);  // and out of range
}

// Exercised in the TSan job: concurrent readers race an override flip on
// the dispatch pointer; the only synchronization is the atomic pointer.
TEST(BitsetKernelTest, ConcurrentDispatchAndOverrideAreRaceFree) {
  constexpr size_t kWords = 64;
  std::vector<uint64_t> a(kWords, 0x5555555555555555ULL);
  std::vector<uint64_t> b(kWords, 0x3333333333333333ULL);
  std::vector<uint64_t> mask(kWords, 0x0f0f0f0f0f0f0f0fULL);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::vector<uint64_t> dst(kWords);
      while (!stop.load(std::memory_order_relaxed)) {
        // 0x...5 & 0x...3 = 0x...1 -> one bit per nibble, half of them
        // inside the mask.
        simd::DualCount dc = simd::IntersectIntoDual(
            dst.data(), a.data(), b.data(), mask.data(), kWords);
        if (dc.total != 16 * kWords || dc.in_mask != 8 * kWords) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::string> names = simd::SupportedKernels();
  for (int i = 0; i < 200; ++i) {
    simd::SetKernelOverride(names[i % names.size()].c_str());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  simd::SetKernelOverride(nullptr);
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace fairclique
