#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "core/enumeration.h"
#include "core/max_fair_clique.h"
#include "core/verifier.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::BruteForceMaxFairClique;
using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

TEST(MaxFairCliqueTest, PaperExample1) {
  // Fig. 1 with k = 3, delta = 1: the answer has 7 vertices — the right
  // 8-clique minus one of v11..v15 — with counts (3, 4).
  AttributedGraph g = PaperFigure1Graph();
  for (ExtraBound extra : {ExtraBound::kNone, ExtraBound::kColorfulPath}) {
    SearchResult r = FindMaximumFairClique(g, FullOptions(3, 1, extra));
    EXPECT_EQ(r.clique.size(), 7u);
    EXPECT_TRUE(IsFairClique(g, r.clique.vertices, {3, 1}));
    EXPECT_EQ(r.clique.attr_counts.a(), 3);
    EXPECT_EQ(r.clique.attr_counts.b(), 4);
  }
}

TEST(MaxFairCliqueTest, EmptyGraphHasNoFairClique) {
  AttributedGraph g = MakeGraph("", {});
  SearchResult r = FindMaximumFairClique(g, BaselineOptions(1, 0));
  EXPECT_TRUE(r.clique.empty());
}

TEST(MaxFairCliqueTest, SingleAttributeGraphHasNoFairClique) {
  // All vertices 'a': cnt(b) >= k unsatisfiable.
  GraphBuilder b(6);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  AttributedGraph g = b.Build();
  SearchResult r = FindMaximumFairClique(g, BaselineOptions(1, 3));
  EXPECT_TRUE(r.clique.empty());
}

TEST(MaxFairCliqueTest, SingleEdgeFairForKOne) {
  AttributedGraph g = MakeGraph("ab", {{0, 1}});
  SearchResult r = FindMaximumFairClique(g, BaselineOptions(1, 0));
  EXPECT_EQ(r.clique.size(), 2u);
}

TEST(MaxFairCliqueTest, DeltaZeroForcesExactBalance) {
  // K5 with 2 a's and 3 b's: delta=0 allows only (2,2).
  GraphBuilder b(5);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  b.SetAttribute(0, Attribute::kA);
  b.SetAttribute(1, Attribute::kA);
  for (VertexId v = 2; v < 5; ++v) b.SetAttribute(v, Attribute::kB);
  AttributedGraph g = b.Build();
  SearchResult r = FindMaximumFairClique(g, BaselineOptions(1, 0));
  EXPECT_EQ(r.clique.size(), 4u);
  EXPECT_EQ(r.clique.attr_counts.Diff(), 0);

  // K4 "aabb" at k=2, delta=0: the whole K4 is the answer. The paper's
  // Algorithm 3 as printed (alternate the attribute, keep only candidates
  // later in the colour order) cannot reach it under the order a, a, b, b.
  AttributedGraph k4 =
      MakeGraph("aabb", {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  for (const SearchOptions& options :
       {BaselineOptions(2, 0), FullOptions(2, 0, ExtraBound::kColorfulPath)}) {
    EXPECT_EQ(FindMaximumFairClique(k4, options).clique.size(), 4u);
  }
}

TEST(MaxFairCliqueTest, InfeasibleKReturnsEmpty) {
  AttributedGraph g = RandomAttributedGraph(30, 0.2, 1);
  SearchResult r = FindMaximumFairClique(g, BaselineOptions(20, 1));
  EXPECT_TRUE(r.clique.empty());
}

// ---- The flagship cross-check: every configuration agrees with two
// ---- independent oracles on randomized instances.

struct AgreementCase {
  uint64_t seed;
  VertexId n;
  double density;
  int k;
  int delta;
};

// Prints the fields, so the test names gtest derives from the parameter
// never embed the struct's padding bytes.
void PrintTo(const AgreementCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << ",n=" << c.n << ",density=" << c.density
      << ",k=" << c.k << ",delta=" << c.delta;
}

class OracleAgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(OracleAgreementTest, AllConfigurationsMatchOracle) {
  const AgreementCase p = GetParam();
  AttributedGraph g = RandomAttributedGraph(p.n, p.density, p.seed);
  FairnessParams params{p.k, p.delta};
  CliqueResult oracle = MaxFairCliqueByEnumeration(g, params);

  std::vector<SearchOptions> configs;
  configs.push_back(BaselineOptions(p.k, p.delta));
  for (ExtraBound extra :
       {ExtraBound::kNone, ExtraBound::kDegeneracy, ExtraBound::kHIndex,
        ExtraBound::kColorfulDegeneracy, ExtraBound::kColorfulHIndex,
        ExtraBound::kColorfulPath}) {
    configs.push_back(BoundedOptions(p.k, p.delta, extra));
    configs.push_back(FullOptions(p.k, p.delta, extra));
  }
  // Reduction ablations.
  SearchOptions no_reduce = BaselineOptions(p.k, p.delta);
  no_reduce.reductions = {false, false, false};
  configs.push_back(no_reduce);
  SearchOptions core_only = BaselineOptions(p.k, p.delta);
  core_only.reductions = {true, false, false};
  configs.push_back(core_only);

  for (size_t i = 0; i < configs.size(); ++i) {
    SearchResult r = FindMaximumFairClique(g, configs[i]);
    EXPECT_EQ(r.clique.size(), oracle.size())
        << "config " << i << " disagrees with the oracle (seed " << p.seed
        << ", k=" << p.k << ", delta=" << p.delta << ")";
    if (!r.clique.empty()) {
      EXPECT_TRUE(VerifyFairClique(g, r.clique.vertices, params).ok());
    }
    EXPECT_TRUE(r.stats.completed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, OracleAgreementTest,
    ::testing::Values(
        AgreementCase{101, 25, 0.30, 1, 0}, AgreementCase{102, 25, 0.30, 1, 2},
        AgreementCase{103, 25, 0.40, 2, 0}, AgreementCase{104, 25, 0.40, 2, 1},
        AgreementCase{105, 30, 0.35, 2, 2}, AgreementCase{106, 30, 0.35, 3, 1},
        AgreementCase{107, 30, 0.45, 3, 0}, AgreementCase{108, 30, 0.45, 2, 3},
        AgreementCase{109, 35, 0.30, 2, 1}, AgreementCase{110, 35, 0.30, 3, 2},
        AgreementCase{111, 40, 0.25, 2, 0}, AgreementCase{112, 40, 0.25, 2, 2},
        AgreementCase{113, 45, 0.20, 2, 1}, AgreementCase{114, 45, 0.35, 3, 3},
        AgreementCase{115, 50, 0.30, 3, 1}, AgreementCase{116, 50, 0.30, 4, 2},
        AgreementCase{117, 20, 0.50, 2, 0}, AgreementCase{118, 20, 0.60, 3, 1},
        AgreementCase{119, 22, 0.55, 2, 4}, AgreementCase{120, 28, 0.45, 1, 1}));

// Tiny graphs: agree with full subset enumeration (a third, even more
// primitive oracle).
TEST(MaxFairCliqueTest, MatchesSubsetBruteForceOnTinyGraphs) {
  for (uint64_t seed = 200; seed < 215; ++seed) {
    AttributedGraph g = RandomAttributedGraph(12, 0.45, seed);
    for (int k = 1; k <= 2; ++k) {
      for (int delta = 0; delta <= 2; ++delta) {
        std::vector<VertexId> brute = BruteForceMaxFairClique(g, k, delta);
        SearchResult r = FindMaximumFairClique(
            g, FullOptions(k, delta, ExtraBound::kColorfulDegeneracy));
        EXPECT_EQ(r.clique.size(), brute.size())
            << "seed=" << seed << " k=" << k << " delta=" << delta;
      }
    }
  }
}

TEST(MaxFairCliqueTest, PlantedBalancedCliqueIsFound) {
  Rng rng(77);
  AttributedGraph base = ChungLuPowerLaw(300, 6.0, 2.5, rng);
  base = AssignAttributesBernoulli(base, 0.5, rng);
  std::vector<VertexId> members;
  AttributedGraph g = PlantClique(base, 12, /*balanced=*/true, rng, &members);
  SearchResult r =
      FindMaximumFairClique(g, FullOptions(5, 2, ExtraBound::kColorfulPath));
  EXPECT_GE(r.clique.size(), 12u);
  EXPECT_TRUE(IsFairClique(g, r.clique.vertices, {5, 2}));
}

TEST(MaxFairCliqueTest, DisconnectedComponentsSearched) {
  // Two disjoint fair cliques of different sizes; the bigger one must win.
  GraphBuilder b(11);
  // Component 1: K4, 2+2.
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  b.SetAttribute(0, Attribute::kA);
  b.SetAttribute(1, Attribute::kA);
  b.SetAttribute(2, Attribute::kB);
  b.SetAttribute(3, Attribute::kB);
  // Component 2: K6, 3+3 on vertices 5..10.
  for (VertexId u = 5; u < 11; ++u) {
    for (VertexId v = u + 1; v < 11; ++v) b.AddEdge(u, v);
  }
  for (VertexId v = 5; v < 8; ++v) b.SetAttribute(v, Attribute::kA);
  for (VertexId v = 8; v < 11; ++v) b.SetAttribute(v, Attribute::kB);
  AttributedGraph g = b.Build();
  SearchResult r = FindMaximumFairClique(g, BaselineOptions(2, 1));
  EXPECT_EQ(r.clique.size(), 6u);
  for (VertexId v : r.clique.vertices) EXPECT_GE(v, 5u);
}

TEST(MaxFairCliqueTest, NodeLimitMarksIncomplete) {
  AttributedGraph g = RandomAttributedGraph(60, 0.5, 301);
  SearchOptions opts = BaselineOptions(1, 5);
  opts.node_limit = 5;
  SearchResult r = FindMaximumFairClique(g, opts);
  EXPECT_FALSE(r.stats.completed);
}

TEST(MaxFairCliqueTest, StatsArePopulated) {
  AttributedGraph g = RandomAttributedGraph(50, 0.3, 303);
  SearchResult r =
      FindMaximumFairClique(g, FullOptions(2, 1, ExtraBound::kColorfulPath));
  EXPECT_GT(r.stats.nodes, 0u);
  EXPECT_GE(r.stats.total_micros, r.stats.search_micros);
  EXPECT_EQ(r.stats.reduction_stages.size(), 3u);
}

TEST(MaxFairCliqueTest, HeuristicPrimingNeverChangesTheAnswer) {
  for (uint64_t seed : {401u, 402u, 403u, 404u}) {
    AttributedGraph g = RandomAttributedGraph(40, 0.35, seed);
    SearchResult without =
        FindMaximumFairClique(g, BoundedOptions(2, 1, ExtraBound::kNone));
    SearchResult with =
        FindMaximumFairClique(g, FullOptions(2, 1, ExtraBound::kNone));
    EXPECT_EQ(without.clique.size(), with.clique.size()) << "seed " << seed;
  }
}

TEST(MaxFairCliqueTest, LargeDeltaBehavesLikeWeakFairness) {
  // With delta >= n the constraint reduces to cnt >= k on both sides.
  AttributedGraph g = RandomAttributedGraph(25, 0.4, 501);
  FairnessParams params{2, 25};
  CliqueResult oracle = MaxFairCliqueByEnumeration(g, params);
  SearchResult r = FindMaximumFairClique(g, BaselineOptions(2, 25));
  EXPECT_EQ(r.clique.size(), oracle.size());
}

TEST(MaxFairCliqueTest, ResultVerticesAreSortedAndUnique) {
  AttributedGraph g = RandomAttributedGraph(40, 0.3, 601);
  SearchResult r = FindMaximumFairClique(g, BaselineOptions(2, 2));
  ASSERT_FALSE(r.clique.empty());
  for (size_t i = 1; i < r.clique.vertices.size(); ++i) {
    EXPECT_LT(r.clique.vertices[i - 1], r.clique.vertices[i]);
  }
}

}  // namespace
}  // namespace fairclique
