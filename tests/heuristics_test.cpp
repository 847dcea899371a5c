#include <gtest/gtest.h>

#include "core/enumeration.h"
#include "core/heuristics.h"
#include "core/verifier.h"
#include "datasets/datasets.h"
#include "graph/coloring.h"
#include "graph/cores.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

TEST(DegHeurTest, EmptyGraphReturnsEmpty) {
  AttributedGraph g = MakeGraph("", {});
  EXPECT_TRUE(DegHeur(g, {1, 0}).empty());
}

TEST(DegHeurTest, FindsTheObviousFairClique) {
  // K6 split 3/3 dominates the graph.
  GraphBuilder b(6);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  for (VertexId v = 0; v < 3; ++v) b.SetAttribute(v, Attribute::kA);
  for (VertexId v = 3; v < 6; ++v) b.SetAttribute(v, Attribute::kB);
  AttributedGraph g = b.Build();
  CliqueResult r = DegHeur(g, {2, 1});
  EXPECT_EQ(r.size(), 6u);
  EXPECT_TRUE(IsFairClique(g, r.vertices, {2, 1}));
}

TEST(DegHeurTest, OutputIsAlwaysAFairCliqueOrEmpty) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    AttributedGraph g = RandomAttributedGraph(60, 0.25, seed);
    for (int k = 1; k <= 3; ++k) {
      for (int delta = 0; delta <= 2; ++delta) {
        FairnessParams params{k, delta};
        CliqueResult r = DegHeur(g, params);
        if (!r.empty()) {
          EXPECT_TRUE(IsFairClique(g, r.vertices, params))
              << "seed=" << seed << " k=" << k << " d=" << delta;
        }
      }
    }
  }
}

TEST(ColorfulDegHeurTest, OutputIsAlwaysAFairCliqueOrEmpty) {
  for (uint64_t seed = 20; seed <= 30; ++seed) {
    AttributedGraph g = RandomAttributedGraph(60, 0.25, seed);
    FairnessParams params{2, 1};
    CliqueResult r = ColorfulDegHeur(g, params);
    if (!r.empty()) {
      EXPECT_TRUE(IsFairClique(g, r.vertices, params)) << "seed " << seed;
    }
  }
}

TEST(HeurRFCTest, NeverExceedsExactOptimum) {
  for (uint64_t seed = 40; seed <= 50; ++seed) {
    AttributedGraph g = RandomAttributedGraph(40, 0.35, seed);
    FairnessParams params{2, 1};
    CliqueResult exact = MaxFairCliqueByEnumeration(g, params);
    HeuristicResult heur = HeurRFC(g, params);
    EXPECT_LE(heur.clique.size(), exact.size()) << "seed " << seed;
    if (!heur.clique.empty()) {
      EXPECT_TRUE(IsFairClique(g, heur.clique.vertices, params));
      // The color-count upper bound must dominate the exact optimum.
      EXPECT_GE(heur.color_upper_bound, static_cast<int64_t>(exact.size()));
    }
  }
}

TEST(HeurRFCTest, TakesTheBetterOfBothPasses) {
  for (uint64_t seed = 60; seed <= 66; ++seed) {
    AttributedGraph g = RandomAttributedGraph(80, 0.2, seed);
    FairnessParams params{2, 2};
    CliqueResult deg = DegHeur(g, params);
    HeuristicResult combined = HeurRFC(g, params);
    EXPECT_GE(combined.clique.size(), deg.size()) << "seed " << seed;
  }
}

TEST(HeurRFCTest, FindsPlantedCliqueApproximately) {
  Rng rng(99);
  AttributedGraph base = ChungLuPowerLaw(400, 5.0, 2.5, rng);
  base = AssignAttributesBernoulli(base, 0.5, rng);
  std::vector<VertexId> members;
  AttributedGraph g = PlantClique(base, 14, /*balanced=*/true, rng, &members);
  HeuristicResult heur = HeurRFC(g, {5, 2});
  // The planted clique dominates degree-wise; the heuristic should land on
  // (most of) it. The paper's Fig. 8 reports gaps <= 6.
  EXPECT_GE(heur.clique.size(), 8u);
}

TEST(HeurRFCTest, TrimsAnUnfairGrownCliqueToItsBestFairSubset) {
  // K5 with attributes a,b,a,b,a: the greedy pass grows all five (3 a, 2 b),
  // which is unfair at delta = 0; dropping the last-added a leaves a fair
  // 4-clique.
  GraphBuilder b(5);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
    b.SetAttribute(u, u % 2 == 0 ? Attribute::kA : Attribute::kB);
  }
  AttributedGraph g = b.Build();
  const FairnessParams params{2, 0};
  HeuristicResult heur = HeurRFC(g, params);
  EXPECT_EQ(heur.clique.size(), 4u);
  EXPECT_TRUE(IsFairClique(g, heur.clique.vertices, params));
  EXPECT_EQ(heur.clique.attr_counts.a(), 2);
  EXPECT_EQ(heur.clique.attr_counts.b(), 2);
}

TEST(HeurRFCTest, ColorBoundIsTheCoreCopysColorCount) {
  // HeurRFC colors the (|R*|-1)-core of its remainder through a mask. The
  // copy form: the (|R*|-1)-core of g (k-cores nest, so it is also that
  // core of the remainder), materialized and colored on its own.
  for (const DatasetSpec& spec : StandardDatasets()) {
    const AttributedGraph g = LoadDataset(spec.name);
    for (int delta = 1; delta <= 2; ++delta) {
      const FairnessParams params{spec.default_k, delta};
      const HeuristicResult heur = HeurRFC(g, params);
      const uint32_t size = static_cast<uint32_t>(heur.clique.size());
      const AttributedGraph core = g.FilteredSubgraph(
          KCoreAliveFlags(g, size > 0 ? size - 1 : 0), {});
      EXPECT_EQ(heur.color_upper_bound, GreedyColoring(core).num_colors)
          << spec.name << " delta=" << delta;
    }
  }
}

TEST(HeurRFCTest, SingleAttributeGraphYieldsEmpty) {
  GraphBuilder b(8);
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) b.AddEdge(u, v);
  }
  AttributedGraph g = b.Build();  // all 'a'
  HeuristicResult heur = HeurRFC(g, {1, 1});
  EXPECT_TRUE(heur.clique.empty());
}

}  // namespace
}  // namespace fairclique
