#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "bounds/upper_bounds.h"
#include "core/enumeration.h"
#include "graph/coloring.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

// Every bound must dominate the exact maximum fair clique size. This is the
// central soundness property; it exercises the corrected forms of the
// paper's Lemmas 9-13, each documented at its bound in bounds/upper_bounds.h.
struct BoundCase {
  uint64_t seed;
  double density;
  int delta;
};

// Prints the fields, so the test names gtest derives from the parameter
// never embed the struct's padding bytes.
void PrintTo(const BoundCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << ",density=" << c.density
      << ",delta=" << c.delta;
}

class BoundSoundnessTest : public ::testing::TestWithParam<BoundCase> {};

TEST_P(BoundSoundnessTest, AllBoundsDominateExactOptimum) {
  const BoundCase param = GetParam();
  AttributedGraph g = RandomAttributedGraph(35, param.density, param.seed);
  Coloring c = GreedyColoring(g);
  // Exact optimum for k = 1 (the least restrictive k makes the bound test
  // strongest: bounds are k-independent).
  FairnessParams params{1, param.delta};
  CliqueResult exact = MaxFairCliqueByEnumeration(g, params);
  const int64_t opt = static_cast<int64_t>(exact.size());

  EXPECT_GE(SizeBound(g), opt);
  EXPECT_GE(AttributeBound(g, param.delta), opt);
  EXPECT_GE(ColorBound(c), opt);
  EXPECT_GE(AttributeColorBound(g, c, param.delta), opt);
  EXPECT_GE(EnhancedAttributeColorBound(g, c, param.delta), opt);
  EXPECT_GE(DegeneracyBound(g), opt);
  EXPECT_GE(HIndexBound(g), opt);
  EXPECT_GE(ColorfulDegeneracyBound(g, c, param.delta), opt);
  EXPECT_GE(ColorfulHIndexBound(g, c, param.delta), opt);
  EXPECT_GE(ColorfulPathBound(g, c), opt);
  EXPECT_GE(AdvancedBound(g, c, param.delta), opt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundSoundnessTest,
    ::testing::Values(BoundCase{1, 0.2, 0}, BoundCase{2, 0.2, 1},
                      BoundCase{3, 0.3, 2}, BoundCase{4, 0.3, 0},
                      BoundCase{5, 0.4, 1}, BoundCase{6, 0.4, 3},
                      BoundCase{7, 0.5, 2}, BoundCase{8, 0.5, 0},
                      BoundCase{9, 0.6, 1}, BoundCase{10, 0.6, 4}));

TEST(BoundOrderingTest, TighterVariantsNeverExceedLooserOnes) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    AttributedGraph g = RandomAttributedGraph(50, 0.3, seed);
    Coloring c = GreedyColoring(g);
    const int delta = 1;
    // ubac refines uba (colors per attribute <= vertices per attribute).
    EXPECT_LE(AttributeColorBound(g, c, delta), AttributeBound(g, delta));
    // ubeac refines ubac.
    EXPECT_LE(EnhancedAttributeColorBound(g, c, delta),
              AttributeColorBound(g, c, delta));
    // The advanced group is the min of its members.
    int64_t ad = AdvancedBound(g, c, delta);
    EXPECT_LE(ad, SizeBound(g));
    EXPECT_LE(ad, EnhancedAttributeColorBound(g, c, delta));
  }
}

TEST(ColorfulPathBoundTest, PathIsColorIncreasing) {
  // On a clique, the bound equals the clique size exactly.
  GraphBuilder b(6);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  AttributedGraph k6 = b.Build();
  Coloring c = GreedyColoring(k6);
  EXPECT_EQ(ColorfulPathBound(k6, c), 6);
}

TEST(ColorfulPathBoundTest, StarIsTwo) {
  AttributedGraph star = MakeGraph("aaaab", {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  Coloring c = GreedyColoring(star);
  EXPECT_EQ(ColorfulPathBound(star, c), 2);
}

TEST(ColorfulPathBoundTest, EmptyAndIsolated) {
  AttributedGraph empty = MakeGraph("", {});
  EXPECT_EQ(ColorfulPathBound(empty, GreedyColoring(empty)), 0);
  AttributedGraph iso = MakeGraph("aa", {});
  EXPECT_EQ(ColorfulPathBound(iso, GreedyColoring(iso)), 1);
}

TEST(DegeneracyBoundTest, TriangleNeedsPlusOne) {
  // K3 has degeneracy 2 but clique number 3: the +1 correction matters.
  AttributedGraph k3 = MakeGraph("aab", {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(DegeneracyBound(k3), 3);
  EXPECT_EQ(HIndexBound(k3), 3);
}

TEST(EnhancedAttributeColorBoundTest, MixedColorsCountedOncePerSide) {
  // Printed Lemma 9 counterexample: ca=0, cb=10, cm=4, delta=0
  // admits a fair clique over 8 colors; the sound bound must be >= 8.
  // Construct: 4 a-vertices with colors shared by 4 b-vertices (mixed),
  // plus 6 b-only colors; complete bipartite-ish clique structure is not
  // needed — we check the formula directly through a crafted graph.
  // Simpler: verify formula behavior via BalancedAssignMin.
  // bal = max_x min(0 + x, 10 + 4 - x) for x <= 4 -> x=4: min(4,10)=4.
  // ubeac = min(14, 2*4 + 0) = 8.
  // Build a tiny graph realizing ca=0, cb=2, cm=1: colors {0,1,2};
  // a-vertices on color 0; b-vertices on colors 0,1,2.
  AttributedGraph g = MakeGraph(
      "abbb", {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {0, 3}});
  Coloring c = GreedyColoring(g);
  // K4 with one a: any delta >= 2 allows the whole K4... the bound with
  // delta = 0 caps at 2*min(colors available to a) = 2.
  int64_t ub0 = EnhancedAttributeColorBound(g, c, 0);
  EXPECT_GE(ub0, 2);  // a=1 + b=1 fair clique exists
  int64_t ub2 = EnhancedAttributeColorBound(g, c, 2);
  EXPECT_GE(ub2, 4);  // the whole K4 is fair at delta >= 2
}

TEST(ComputeUpperBoundTest, ConfigSelectsExtras) {
  AttributedGraph g = RandomAttributedGraph(40, 0.3, 21);
  FairnessParams params{1, 1};
  CliqueResult exact = MaxFairCliqueByEnumeration(g, params);
  for (ExtraBound extra :
       {ExtraBound::kNone, ExtraBound::kDegeneracy, ExtraBound::kHIndex,
        ExtraBound::kColorfulDegeneracy, ExtraBound::kColorfulHIndex,
        ExtraBound::kColorfulPath}) {
    UpperBoundConfig config{.use_advanced = true, .extra = extra};
    int64_t ub = ComputeUpperBound(g, params.delta, config);
    EXPECT_GE(ub, static_cast<int64_t>(exact.size()))
        << ExtraBoundName(extra);
  }
}

TEST(ComputeUpperBoundTest, EmptyGraphIsZero) {
  AttributedGraph empty = MakeGraph("", {});
  EXPECT_EQ(ComputeUpperBound(empty, 1, {}), 0);
}

TEST(ExtraBoundNameTest, AllNamesDistinct) {
  std::vector<std::string> names;
  for (ExtraBound extra :
       {ExtraBound::kNone, ExtraBound::kDegeneracy, ExtraBound::kHIndex,
        ExtraBound::kColorfulDegeneracy, ExtraBound::kColorfulHIndex,
        ExtraBound::kColorfulPath}) {
    names.push_back(ExtraBoundName(extra));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace fairclique
