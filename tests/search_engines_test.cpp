#include <gtest/gtest.h>

#include <ostream>

#include "common/bitset.h"
#include "core/enumeration.h"
#include "core/max_fair_clique.h"
#include "core/prepared_graph.h"
#include "core/verifier.h"
#include "datasets/datasets.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::RandomAttributedGraph;

TEST(BitsetResetBelowTest, ClearsExactPrefix) {
  for (size_t n : {1u, 63u, 64u, 65u, 130u}) {
    for (size_t cut : {0u, 1u, 63u, 64u, 65u, 129u, 200u}) {
      Bitset bs(n);
      bs.SetAll();
      bs.ResetBelow(cut);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bs.Test(i), i >= cut) << "n=" << n << " cut=" << cut;
      }
    }
  }
}

// Differential sweep: both kernels are exact, so they must agree with each
// other and the oracle on every instance, with every prune configuration.
struct EngineCase {
  uint64_t seed;
  VertexId n;
  double density;
  int k;
  int delta;
};

// Prints the fields, so the test names gtest derives from the parameter
// never embed the struct's padding bytes.
void PrintTo(const EngineCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << ",n=" << c.n << ",density=" << c.density
      << ",k=" << c.k << ",delta=" << c.delta;
}

class EngineAgreementTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineAgreementTest, VectorAndBitsetKernelsAgree) {
  const EngineCase p = GetParam();
  AttributedGraph g = RandomAttributedGraph(p.n, p.density, p.seed);
  CliqueResult oracle = MaxFairCliqueByEnumeration(g, {p.k, p.delta});

  for (ExtraBound extra : {ExtraBound::kNone, ExtraBound::kColorfulPath}) {
    SearchOptions vec = FullOptions(p.k, p.delta, extra);
    vec.engine = SearchEngine::kVector;
    SearchOptions bit = vec;
    bit.engine = SearchEngine::kBitset;

    SearchResult rv = FindMaximumFairClique(g, vec);
    SearchResult rb = FindMaximumFairClique(g, bit);
    EXPECT_EQ(rv.clique.size(), oracle.size()) << "vector engine";
    EXPECT_EQ(rb.clique.size(), oracle.size()) << "bitset engine";
    // Same pruning rules -> identical node counts.
    EXPECT_EQ(rv.stats.nodes, rb.stats.nodes);
    if (!rb.clique.empty()) {
      EXPECT_TRUE(
          VerifyFairClique(g, rb.clique.vertices, {p.k, p.delta}).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, EngineAgreementTest,
    ::testing::Values(EngineCase{1, 25, 0.35, 2, 1},
                      EngineCase{2, 30, 0.30, 2, 0},
                      EngineCase{3, 35, 0.30, 3, 2},
                      EngineCase{4, 40, 0.25, 2, 2},
                      EngineCase{5, 45, 0.35, 3, 1},
                      EngineCase{6, 50, 0.20, 2, 3},
                      EngineCase{7, 60, 0.15, 2, 1},
                      EngineCase{8, 70, 0.50, 3, 0}));

TEST(EngineSelectionTest, AutoPicksBitsetForSmallComponents) {
  AttributedGraph g = RandomAttributedGraph(60, 0.3, 10);
  SearchOptions opts = BaselineOptions(2, 1);
  opts.engine = SearchEngine::kAuto;
  SearchResult r_auto = FindMaximumFairClique(g, opts);
  opts.engine = SearchEngine::kBitset;
  SearchResult r_bitset = FindMaximumFairClique(g, opts);
  EXPECT_EQ(r_auto.clique.size(), r_bitset.clique.size());
  EXPECT_EQ(r_auto.stats.nodes, r_bitset.stats.nodes);
}

TEST(EngineSelectionTest, VectorEngineHandlesLargeSparseGraphs) {
  AttributedGraph g = RandomAttributedGraph(400, 0.02, 11);
  SearchOptions opts = BaselineOptions(1, 2);
  opts.engine = SearchEngine::kVector;
  SearchResult r = FindMaximumFairClique(g, opts);
  CliqueResult oracle = MaxFairCliqueByEnumeration(g, {1, 2});
  EXPECT_EQ(r.clique.size(), oracle.size());
}

// Pinned search counters. The values were recorded from the two separate
// per-engine kernels that preceded the single templated Branch; every
// prune rule, the node/deadline cadence and the sequential component order
// must reproduce them exactly, on both candidate-set policies.
AttributedGraph GoldenGraph(int id) {
  switch (id) {
    case 0: return RandomAttributedGraph(40, 0.35, 101);
    case 1: return RandomAttributedGraph(60, 0.25, 102);
    case 2: return RandomAttributedGraph(70, 0.5, 103);
    case 3: return RandomAttributedGraph(150, 0.08, 104);
    case 4: return RandomAttributedGraph(120, 0.3, 105);
    case 5: return LoadDataset("themarker-s", 0.25);
    default: return LoadDataset("dblp-s", 0.25);
  }
}

SearchOptions GoldenOptions(int id) {
  SearchOptions o = BaselineOptions(2, 1);
  switch (id) {
    case 0: return BaselineOptions(1, 1);
    case 1: return BaselineOptions(2, 0);
    case 2: return BaselineOptions(2, 2);
    case 3: return BaselineOptions(3, 1);
    case 4: return BoundedOptions(2, 1, ExtraBound::kColorfulPath);
    case 5: return BoundedOptions(2, 1, ExtraBound::kColorfulDegeneracy);
    case 6: return BoundedOptions(2, 2, ExtraBound::kHIndex);
    case 7: return FullOptions(2, 1, ExtraBound::kColorfulPath);
    // 8 and 9 pinned the removed degeneracy and degree branch orders.
    case 10:
      o = BaselineOptions(1, 3);
      o.node_limit = 50;
      return o;
    default: o.reductions = {false, false, false}; return o;
  }
}

struct GoldenCounts {
  int graph;
  int options;
  uint64_t nodes, size_prunes, attr_prunes, cap_removals, bound_prunes;
  size_t answer;
  bool completed;
};

constexpr GoldenCounts kGolden[] = {
    {0, 0, 215, 195, 2, 11, 0, 5, true},
    {0, 1, 148, 131, 7, 17, 0, 4, true},
    {0, 2, 107, 97, 0, 0, 0, 5, true},
    {0, 3, 0, 0, 0, 0, 0, 0, true},
    {0, 4, 47, 19, 0, 0, 21, 5, true},
    {0, 5, 47, 19, 0, 0, 21, 5, true},
    {0, 6, 47, 19, 0, 0, 21, 5, true},
    {0, 7, 33, 13, 0, 0, 20, 5, true},
    {0, 10, 51, 39, 0, 0, 0, 4, false},
    {0, 11, 218, 181, 17, 0, 0, 5, true},
    {1, 0, 283, 249, 0, 8, 0, 5, true},
    {1, 1, 75, 66, 2, 3, 0, 4, true},
    {1, 2, 73, 62, 2, 0, 0, 5, true},
    {1, 3, 0, 0, 0, 0, 0, 0, true},
    {1, 4, 47, 28, 2, 0, 13, 5, true},
    {1, 5, 47, 28, 2, 0, 13, 5, true},
    {1, 6, 47, 28, 2, 0, 13, 5, true},
    {1, 7, 44, 27, 2, 0, 13, 5, true},
    {1, 10, 51, 41, 0, 0, 0, 4, false},
    {1, 11, 327, 258, 22, 1, 0, 5, true},
    {2, 0, 4186, 4090, 15, 762, 0, 7, true},
    {2, 1, 5737, 5326, 119, 2212, 0, 6, true},
    {2, 2, 3741, 3644, 44, 80, 0, 8, true},
    {2, 3, 3737, 3446, 234, 9, 0, 7, true},
    {2, 4, 3905, 3741, 59, 450, 32, 7, true},
    {2, 5, 3605, 3444, 50, 422, 38, 7, true},
    {2, 6, 3029, 2900, 40, 80, 36, 8, true},
    {2, 7, 3903, 3742, 59, 450, 32, 7, true},
    {2, 10, 51, 33, 2, 1, 0, 6, false},
    {2, 11, 4174, 3982, 111, 297, 0, 7, true},
    {3, 0, 588, 344, 1, 7, 0, 4, true},
    {3, 1, 5, 3, 0, 0, 0, 4, true},
    {3, 2, 5, 3, 0, 0, 0, 4, true},
    {3, 3, 0, 0, 0, 0, 0, 0, true},
    {3, 4, 5, 3, 0, 0, 0, 4, true},
    {3, 5, 5, 3, 0, 0, 0, 4, true},
    {3, 6, 5, 3, 0, 0, 0, 4, true},
    {3, 7, 0, 0, 0, 0, 0, 4, true},
    {3, 10, 51, 24, 0, 0, 0, 3, false},
    {3, 11, 655, 344, 20, 0, 0, 4, true},
    {4, 0, 3409, 3029, 10, 316, 0, 7, true},
    {4, 1, 2956, 2709, 44, 319, 0, 6, true},
    {4, 2, 2375, 2241, 16, 2, 0, 7, true},
    {4, 3, 65, 61, 0, 0, 0, 7, true},
    {4, 4, 873, 707, 9, 5, 96, 7, true},
    {4, 5, 762, 599, 8, 5, 98, 7, true},
    {4, 6, 867, 704, 6, 2, 96, 7, true},
    {4, 7, 608, 477, 2, 3, 101, 7, true},
    {4, 10, 51, 39, 0, 0, 0, 5, false},
    {4, 11, 2540, 2379, 44, 17, 0, 7, true},
    {5, 0, 3028, 2956, 0, 36, 0, 22, true},
    {5, 1, 2354, 2335, 0, 87, 0, 22, true},
    {5, 2, 2175, 2158, 0, 2, 0, 22, true},
    {5, 3, 1882, 1859, 3, 107, 0, 22, true},
    {5, 4, 525, 241, 0, 10, 262, 22, true},
    {5, 5, 502, 216, 0, 7, 264, 22, true},
    {5, 6, 488, 212, 0, 2, 260, 22, true},
    {5, 7, 411, 194, 0, 0, 211, 22, true},
    {5, 10, 51, 29, 0, 0, 0, 5, false},
    {5, 11, 2913, 2818, 7, 28, 0, 22, true},
    {6, 0, 8909, 8766, 1, 2175, 0, 22, true},
    {6, 1, 10644, 10517, 49, 3851, 0, 22, true},
    {6, 2, 8659, 8539, 38, 1361, 0, 22, true},
    {6, 3, 9193, 8994, 144, 2967, 0, 22, true},
    {6, 4, 1489, 586, 1, 103, 878, 22, true},
    {6, 5, 1329, 419, 1, 1, 885, 22, true},
    {6, 6, 1660, 777, 10, 142, 845, 22, true},
    {6, 7, 1, 0, 0, 0, 1, 22, true},
    {6, 10, 51, 40, 1, 7, 0, 6, false},
    {6, 11, 9948, 9705, 34, 1897, 0, 22, true},
};

TEST(BranchKernelGoldenTest, CountersMatchPreRefactorKernels) {
  int loaded = -1;
  AttributedGraph g;
  for (const GoldenCounts& want : kGolden) {
    if (want.graph != loaded) {
      g = GoldenGraph(want.graph);
      loaded = want.graph;
    }
    for (SearchEngine engine : {SearchEngine::kVector, SearchEngine::kBitset}) {
      SearchOptions options = GoldenOptions(want.options);
      options.engine = engine;
      SearchResult r = FindMaximumFairClique(g, options);
      SCOPED_TRACE(testing::Message()
                   << "graph " << want.graph << " options " << want.options
                   << " engine " << SearchEngineName(engine));
      EXPECT_EQ(r.stats.nodes, want.nodes);
      EXPECT_EQ(r.stats.size_prunes, want.size_prunes);
      EXPECT_EQ(r.stats.attr_prunes, want.attr_prunes);
      EXPECT_EQ(r.stats.cap_removals, want.cap_removals);
      EXPECT_EQ(r.stats.bound_prunes, want.bound_prunes);
      EXPECT_EQ(r.clique.size(), want.answer);
      EXPECT_EQ(r.stats.completed, want.completed);
    }
  }
}

// The CalColorOD branch order is exact under both candidate-set engines.
TEST(CalColorODTest, BothEnginesAgreeWithOracle) {
  for (uint64_t seed : {31u, 32u, 33u, 34u}) {
    AttributedGraph g = RandomAttributedGraph(30, 0.35, seed);
    FairnessParams params{2, 1};
    CliqueResult oracle = MaxFairCliqueByEnumeration(g, params);
    for (SearchEngine engine : {SearchEngine::kVector, SearchEngine::kBitset}) {
      SearchOptions opts = BoundedOptions(2, 1, ExtraBound::kColorfulPath);
      opts.engine = engine;
      SearchResult r = FindMaximumFairClique(g, opts);
      EXPECT_EQ(r.clique.size(), oracle.size())
          << "seed=" << seed << " engine=" << static_cast<int>(engine);
    }
  }
}

}  // namespace
}  // namespace fairclique
