#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "core/enumeration.h"
#include "core/max_fair_clique.h"
#include "core/prepared_graph.h"
#include "core/verifier.h"
#include "datasets/datasets.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::RandomAttributedGraph;

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

// Pinned search counters and answers. Every prune rule, the node/deadline
// cadence and the sequential component order must reproduce them exactly,
// on both candidate-set policies. A deliberate kernel change may move the
// counter columns (with the diff recorded in CHANGES.md); the answer and
// completed columns never move.
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
    {0, 0, 180, 144, 23, 0, 0, 5, true},
    {0, 1, 99, 55, 36, 0, 0, 4, true},
    {0, 2, 107, 97, 0, 0, 0, 5, true},
    {0, 3, 0, 0, 0, 0, 0, 0, true},
    {0, 4, 88, 70, 9, 0, 0, 5, true},
    {0, 5, 88, 70, 9, 0, 0, 5, true},
    {0, 6, 107, 97, 0, 0, 0, 5, true},
    {0, 7, 78, 65, 9, 0, 0, 5, true},
    {0, 10, 51, 39, 0, 0, 0, 4, false},
    {0, 11, 196, 147, 33, 0, 0, 5, true},
    {1, 0, 250, 202, 21, 0, 0, 5, true},
    {1, 1, 58, 38, 15, 0, 0, 4, true},
    {1, 2, 73, 62, 2, 0, 0, 5, true},
    {1, 3, 0, 0, 0, 0, 0, 0, true},
    {1, 4, 73, 62, 2, 0, 0, 5, true},
    {1, 5, 73, 62, 2, 0, 0, 5, true},
    {1, 6, 73, 62, 2, 0, 0, 5, true},
    {1, 7, 70, 61, 2, 0, 0, 5, true},
    {1, 10, 51, 41, 0, 0, 0, 4, false},
    {1, 11, 292, 211, 36, 0, 0, 5, true},
    {2, 0, 2937, 2318, 581, 7, 0, 7, true},
    {2, 1, 4024, 2480, 1449, 8, 0, 6, true},
    {2, 2, 3309, 2968, 298, 2, 0, 8, true},
    {2, 3, 2970, 2376, 568, 0, 0, 7, true},
    {2, 4, 3311, 2691, 584, 3, 0, 7, true},
    {2, 5, 3311, 2691, 584, 3, 0, 7, true},
    {2, 6, 3309, 2968, 298, 2, 0, 8, true},
    {2, 7, 3305, 2689, 583, 0, 0, 7, true},
    {2, 10, 51, 31, 4, 0, 0, 6, false},
    {2, 11, 2937, 2318, 581, 7, 0, 7, true},
    {3, 0, 517, 273, 44, 0, 0, 4, true},
    {3, 1, 5, 3, 0, 0, 0, 4, true},
    {3, 2, 5, 3, 0, 0, 0, 4, true},
    {3, 3, 0, 0, 0, 0, 0, 0, true},
    {3, 4, 5, 3, 0, 0, 0, 4, true},
    {3, 5, 5, 3, 0, 0, 0, 4, true},
    {3, 6, 5, 3, 0, 0, 0, 4, true},
    {3, 7, 0, 0, 0, 0, 0, 4, true},
    {3, 10, 51, 24, 0, 0, 0, 3, false},
    {3, 11, 655, 344, 20, 0, 0, 4, true},
    {4, 0, 2935, 2307, 359, 0, 0, 7, true},
    {4, 1, 2318, 1721, 489, 0, 0, 6, true},
    {4, 2, 2293, 2117, 69, 0, 0, 7, true},
    {4, 3, 65, 61, 0, 0, 0, 7, true},
    {4, 4, 2078, 1785, 207, 0, 0, 7, true},
    {4, 5, 2078, 1785, 207, 0, 0, 7, true},
    {4, 6, 2293, 2117, 69, 0, 0, 7, true},
    {4, 7, 1994, 1724, 207, 0, 0, 7, true},
    {4, 10, 51, 39, 0, 0, 0, 5, false},
    {4, 11, 2213, 1891, 235, 0, 0, 7, true},
    {5, 0, 2870, 2736, 67, 4, 0, 22, true},
    {5, 1, 1895, 1752, 124, 5, 0, 22, true},
    {5, 2, 2049, 1992, 40, 0, 0, 22, true},
    {5, 3, 1618, 1547, 51, 1, 0, 22, true},
    {5, 4, 2077, 2002, 52, 4, 0, 22, true},
    {5, 5, 2077, 2002, 52, 4, 0, 22, true},
    {5, 6, 2049, 1992, 40, 0, 0, 22, true},
    {5, 7, 1364, 1297, 61, 0, 0, 22, true},
    {5, 10, 51, 29, 0, 0, 0, 5, false},
    {5, 11, 2764, 2621, 57, 4, 0, 22, true},
    {6, 0, 6475, 6130, 222, 0, 0, 22, true},
    {6, 1, 6292, 5832, 392, 2, 0, 22, true},
    {6, 2, 6829, 6602, 146, 4, 0, 22, true},
    {6, 3, 5257, 5006, 201, 2, 0, 22, true},
    {6, 4, 6830, 6563, 190, 0, 0, 22, true},
    {6, 5, 6830, 6563, 190, 0, 0, 22, true},
    {6, 6, 6829, 6602, 146, 4, 0, 22, true},
    {6, 7, 0, 0, 0, 0, 1, 22, true},
    {6, 10, 51, 35, 1, 0, 0, 6, false},
    {6, 11, 7733, 7335, 216, 1, 0, 22, true},
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
      // The plan is prepared at the request's k, so the counters pin the
      // kernel alone, independent of how FindMaximumFairClique picks the
      // plan's k.
      std::shared_ptr<const PreparedGraph> prepared =
          PrepareGraph(g, options.params.k, options.reductions);
      SearchResult r = SearchPreparedGraph(g, *prepared, options);
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

// The attribute prune runs at the incumbent-lifted k, so a search that
// starts without a seed (the bounded preset runs no heuristic) tightens as
// soon as it finds a clique. Before that lift these searches took 364,817
// and 223,641 nodes.
TEST(IncumbentLiftTest, WeakIncumbentPrunesAtTheLiftedK) {
  AttributedGraph g = LoadDataset("themarker-s", 4);
  std::shared_ptr<const PreparedGraph> prepared = PrepareGraph(g, 2, {});
  struct Case {
    int delta;
    uint64_t unlifted_nodes;
    size_t answer;
  };
  for (const Case& c : {Case{1, 364817, 33}, Case{2, 223641, 34}}) {
    SearchResult r = SearchPreparedGraph(
        g, *prepared, BoundedOptions(2, c.delta, ExtraBound::kColorfulPath));
    SCOPED_TRACE(testing::Message() << "delta " << c.delta);
    EXPECT_EQ(r.clique.size(), c.answer);
    EXPECT_TRUE(r.stats.completed);
    EXPECT_LE(r.stats.nodes * 10, c.unlifted_nodes) << r.stats.nodes;
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
