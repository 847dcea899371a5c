#include <gtest/gtest.h>

#include <set>

#include "graph/coloring.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

TEST(GreedyColoringTest, EmptyAndSingleton) {
  AttributedGraph empty = MakeGraph("", {});
  Coloring c0 = GreedyColoring(empty);
  EXPECT_EQ(c0.num_colors, 0);
  AttributedGraph one = MakeGraph("a", {});
  Coloring c1 = GreedyColoring(one);
  EXPECT_EQ(c1.num_colors, 1);
  EXPECT_EQ(c1.color[0], 0);
}

TEST(GreedyColoringTest, TriangleNeedsThreeColors) {
  AttributedGraph g = MakeGraph("aab", {{0, 1}, {1, 2}, {0, 2}});
  Coloring c = GreedyColoring(g);
  EXPECT_EQ(c.num_colors, 3);
  EXPECT_TRUE(IsProperColoring(g, c));
}

TEST(GreedyColoringTest, BipartiteUsesTwoColors) {
  // Even cycle: 2-colorable; greedy on cycles may use 3, but degree order on
  // C4 yields 2. Use a star, which every greedy colors with 2.
  AttributedGraph star = MakeGraph("aaaab", {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  Coloring c = GreedyColoring(star);
  EXPECT_EQ(c.num_colors, 2);
  EXPECT_TRUE(IsProperColoring(star, c));
}

// Property sweep: proper coloring and the dmax+1 guarantee across random
// graphs.
class ColoringPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColoringPropertyTest, ProperAndBounded) {
  AttributedGraph g = RandomAttributedGraph(120, 0.08, GetParam());
  Coloring c = GreedyColoring(g);
  EXPECT_TRUE(IsProperColoring(g, c));
  EXPECT_LE(c.num_colors, static_cast<int>(g.max_degree()) + 1);
  // Colors must be exactly the dense range [0, num_colors).
  std::set<ColorId> used(c.color.begin(), c.color.end());
  EXPECT_EQ(static_cast<int>(used.size()), c.num_colors);
  EXPECT_EQ(*used.begin(), 0);
  EXPECT_EQ(*used.rbegin(), c.num_colors - 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ColoringPropertyTest,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6));

TEST(ColorfulDegreesTest, ManualExample) {
  // Star center 0 with leaves 1(a), 2(a), 3(b); leaves are pairwise
  // non-adjacent so they may share colors.
  AttributedGraph g = MakeGraph("aaab", {{0, 1}, {0, 2}, {0, 3}});
  Coloring c = GreedyColoring(g);
  std::vector<AttrCounts> d = ColorfulDegrees(g, c);
  // All leaves get the same non-center color under any greedy order here.
  EXPECT_EQ(d[0][Attribute::kA], 1);  // 1 distinct color among a-leaves
  EXPECT_EQ(d[0][Attribute::kB], 1);
  EXPECT_EQ(d[1][Attribute::kA], 1);  // Neighbor 0 has attribute a
  EXPECT_EQ(d[1][Attribute::kB], 0);
}

TEST(ColorfulDegreesTest, MatchesBruteForceOnRandomGraphs) {
  // Sparse graphs, and dense ones whose colorings span more than two 64-bit
  // words of colors per attribute.
  struct Case {
    VertexId n;
    double p;
    uint64_t seed;
  };
  int wide = 0;
  for (const Case& cs : {Case{60, 0.15, 10}, Case{60, 0.15, 20},
                         Case{60, 0.15, 30}, Case{400, 0.95, 40},
                         Case{500, 0.9, 50}}) {
    AttributedGraph g = RandomAttributedGraph(cs.n, cs.p, cs.seed);
    Coloring c = GreedyColoring(g);
    if (c.num_colors > 128) ++wide;
    std::vector<AttrCounts> d = ColorfulDegrees(g, c);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      std::set<ColorId> colors_a, colors_b;
      for (VertexId w : g.neighbors(v)) {
        (g.attribute(w) == Attribute::kA ? colors_a : colors_b)
            .insert(c.color[w]);
      }
      EXPECT_EQ(d[v][Attribute::kA], static_cast<int64_t>(colors_a.size()));
      EXPECT_EQ(d[v][Attribute::kB], static_cast<int64_t>(colors_b.size()));
    }
  }
  EXPECT_EQ(wide, 2);
}

TEST(BalancedAssignMinTest, KnownValues) {
  // No mixed colors: plain min.
  EXPECT_EQ(BalancedAssignMin(3, 5, 0), 3);
  // Mixed colors absorbed by the smaller side.
  EXPECT_EQ(BalancedAssignMin(3, 5, 1), 4);
  EXPECT_EQ(BalancedAssignMin(3, 5, 2), 5);
  // Beyond equalization they split evenly.
  EXPECT_EQ(BalancedAssignMin(3, 5, 4), 6);
  EXPECT_EQ(BalancedAssignMin(3, 5, 5), 6);  // floor((3+5+5)/2) = 6
  EXPECT_EQ(BalancedAssignMin(0, 0, 7), 3);
}

TEST(BalancedAssignMinTest, MatchesExhaustiveSplit) {
  for (int64_t ca = 0; ca <= 6; ++ca) {
    for (int64_t cb = 0; cb <= 6; ++cb) {
      for (int64_t cm = 0; cm <= 6; ++cm) {
        int64_t best = 0;
        for (int64_t x = 0; x <= cm; ++x) {
          best = std::max(best, std::min(ca + x, cb + cm - x));
        }
        EXPECT_EQ(BalancedAssignMin(ca, cb, cm), best)
            << ca << " " << cb << " " << cm;
      }
    }
  }
}

TEST(EnhancedColorfulDegreesTest, MatchesBruteForce) {
  for (uint64_t seed : {40u, 50u}) {
    AttributedGraph g = RandomAttributedGraph(50, 0.2, seed);
    Coloring c = GreedyColoring(g);
    std::vector<int64_t> ed = EnhancedColorfulDegrees(g, c);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      std::set<ColorId> colors_a, colors_b;
      for (VertexId w : g.neighbors(v)) {
        (g.attribute(w) == Attribute::kA ? colors_a : colors_b)
            .insert(c.color[w]);
      }
      int64_t ca = 0, cb = 0, cm = 0;
      for (ColorId col : colors_a) {
        if (colors_b.count(col)) {
          ++cm;
        } else {
          ++ca;
        }
      }
      for (ColorId col : colors_b) {
        if (!colors_a.count(col)) ++cb;
      }
      EXPECT_EQ(ed[v], BalancedAssignMin(ca, cb, cm)) << "vertex " << v;
    }
  }
}

TEST(EnhancedColorfulDegreesTest, NeverExceedsColorfulMin) {
  // ED assigns each color to one attribute, so ED(u) <= min(Da, Db) + mixed
  // correction; in particular ED(u) <= min over the plain colorful degrees
  // is false in general, but ED(u) <= max(Da, Db) and
  // ED(u) <= (Da + Db) always hold. Check the documented inequality
  // ED(u) <= min(Da, Db) ... which is the true containment: each a-assigned
  // color is a distinct a-color, so #a-colors <= Da; ED = min side <= Da and
  // <= Db.
  AttributedGraph g = RandomAttributedGraph(80, 0.15, 60);
  Coloring c = GreedyColoring(g);
  std::vector<AttrCounts> d = ColorfulDegrees(g, c);
  std::vector<int64_t> ed = EnhancedColorfulDegrees(g, c);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(ed[v], d[v].Min()) << "vertex " << v;
  }
}

}  // namespace
}  // namespace fairclique
