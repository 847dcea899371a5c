#include <gtest/gtest.h>

#include "core/enumeration.h"
#include "core/heuristics.h"
#include "core/max_fair_clique.h"
#include "core/verifier.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

TEST(LocalSearchTest, EmptyAndInvalidSeedsPassThrough) {
  AttributedGraph g = MakeGraph("ab", {{0, 1}});
  CliqueResult empty;
  EXPECT_TRUE(LocalSearchImprove(g, empty, {1, 0}).empty());
  // A seed that is not fair is returned untouched.
  CliqueResult unfair;
  unfair.vertices = {0};
  unfair.attr_counts[Attribute::kA] = 1;
  EXPECT_EQ(LocalSearchImprove(g, unfair, {1, 0}).size(), 1u);
}

TEST(LocalSearchTest, AddMoveCompletesACliqueGreedyMissed) {
  // K4 (2a/2b); seed with a fair sub-pair, local search must extend to 4.
  AttributedGraph g =
      MakeGraph("aabb", {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  CliqueResult seed;
  seed.vertices = {0, 2};
  seed.attr_counts[Attribute::kA] = 1;
  seed.attr_counts[Attribute::kB] = 1;
  CliqueResult improved = LocalSearchImprove(g, seed, {1, 1});
  EXPECT_EQ(improved.size(), 4u);
  EXPECT_TRUE(IsFairClique(g, improved.vertices, {1, 1}));
}

TEST(LocalSearchTest, SwapEscapesLocalOptimum) {
  // Cliques {0,1,2} and {0,2,3,4,5} sharing the edge {0,2}. Seeded with the
  // small clique, ADD cannot help (nothing is adjacent to 1), but dropping 1
  // and adding two of {3,4,5} grows the clique; follow-up ADDs reach 5.
  GraphBuilder b(6);
  auto clique = [&b](std::vector<VertexId> vs) {
    for (size_t i = 0; i < vs.size(); ++i) {
      for (size_t j = i + 1; j < vs.size(); ++j) b.AddEdge(vs[i], vs[j]);
    }
  };
  clique({0, 1, 2});
  clique({0, 2, 3, 4, 5});
  b.SetAttribute(0, Attribute::kA);
  b.SetAttribute(1, Attribute::kB);
  b.SetAttribute(2, Attribute::kB);
  b.SetAttribute(3, Attribute::kB);
  b.SetAttribute(4, Attribute::kA);
  b.SetAttribute(5, Attribute::kB);
  AttributedGraph g = b.Build();
  CliqueResult seed;
  seed.vertices = {0, 1, 2};
  seed.attr_counts = CountAttributes(g, seed.vertices);
  ASSERT_TRUE(IsFairClique(g, seed.vertices, {1, 2}));
  CliqueResult improved = LocalSearchImprove(g, seed, {1, 2});
  EXPECT_GE(improved.size(), 5u);
  EXPECT_TRUE(IsFairClique(g, improved.vertices, {1, 2}));
}

TEST(LocalSearchTest, NeverShrinksNeverBreaksFairnessNeverBeatsExact) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    AttributedGraph g = RandomAttributedGraph(35, 0.3, seed);
    FairnessParams params{2, 1};
    HeuristicResult heur = HeurRFC(g, {params, 1, false});
    if (heur.clique.empty()) continue;
    CliqueResult improved = LocalSearchImprove(g, heur.clique, params);
    EXPECT_GE(improved.size(), heur.clique.size()) << "seed " << seed;
    EXPECT_TRUE(IsFairClique(g, improved.vertices, params)) << "seed " << seed;
    CliqueResult exact = MaxFairCliqueByEnumeration(g, params);
    EXPECT_LE(improved.size(), exact.size()) << "seed " << seed;
  }
}

TEST(LocalSearchTest, HeurRFCOptionWiresItIn) {
  for (uint64_t seed = 21; seed <= 28; ++seed) {
    AttributedGraph g = RandomAttributedGraph(50, 0.25, seed);
    FairnessParams params{2, 2};
    HeuristicResult plain = HeurRFC(g, {params, 1, false});
    HeuristicResult with_ls = HeurRFC(g, {params, 1, true});
    EXPECT_GE(with_ls.clique.size(), plain.clique.size()) << "seed " << seed;
    if (!with_ls.clique.empty()) {
      EXPECT_TRUE(IsFairClique(g, with_ls.clique.vertices, params));
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
