// Randomized differential stress tests: many small instances, every engine
// and configuration, three independent answers per instance. Designed to
// shake out interaction bugs the targeted suites can miss. Kept to a few
// seconds of runtime via instance-size budgets.

#include <gtest/gtest.h>

#include "core/enumeration.h"
#include "core/fair_variants.h"
#include "core/heuristics.h"
#include "core/max_clique.h"
#include "core/max_fair_clique.h"
#include "core/verifier.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::RandomAttributedGraph;

TEST(StressTest, EverythingAgreesOnManyRandomInstances) {
  Rng meta(0x57BE55);
  for (int iter = 0; iter < 60; ++iter) {
    uint64_t seed = meta.NextU64();
    VertexId n = static_cast<VertexId>(meta.NextInRange(8, 32));
    double density = 0.15 + meta.NextDouble() * 0.5;
    int k = static_cast<int>(meta.NextInRange(1, 3));
    int delta = static_cast<int>(meta.NextInRange(0, 4));
    AttributedGraph g = RandomAttributedGraph(n, density, seed);
    FairnessParams params{k, delta};

    CliqueResult oracle = MaxFairCliqueByEnumeration(g, params);
    SCOPED_TRACE("iter=" + std::to_string(iter) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) + " d=" + std::to_string(delta));

    // Exact search, a rotating bound configuration.
    ExtraBound extra = static_cast<ExtraBound>(iter % 6);
    SearchOptions opts = FullOptions(k, delta, extra);
    opts.engine =
        iter % 2 == 0 ? SearchEngine::kVector : SearchEngine::kBitset;
    SearchResult exact = FindMaximumFairClique(g, opts);
    EXPECT_EQ(exact.clique.size(), oracle.size());
    if (!exact.clique.empty()) {
      EXPECT_TRUE(VerifyFairClique(g, exact.clique.vertices, params).ok());
    }

    // The heuristic bounds the optimum from below.
    HeuristicResult heur = HeurRFC(g, {params, 1});
    EXPECT_LE(heur.clique.size(), oracle.size());

    // The plain maximum clique bounds from above.
    MaxCliqueResult mc = FindMaximumClique(g);
    EXPECT_GE(mc.clique.size(), oracle.size());

    // Weak >= relative >= strong.
    SearchResult weak = FindMaximumWeakFairClique(g, k);
    SearchResult strong = FindMaximumStrongFairClique(g, k);
    EXPECT_GE(weak.clique.size(), oracle.size());
    EXPECT_LE(strong.clique.size(), oracle.size());
  }
}

TEST(StressTest, ExtremeParameterCorners) {
  Rng meta(0xC04E5);
  for (int iter = 0; iter < 20; ++iter) {
    AttributedGraph g =
        RandomAttributedGraph(20, 0.4, meta.NextU64());
    // k larger than any possible clique: always empty.
    SearchResult impossible = FindMaximumFairClique(g, BaselineOptions(15, 3));
    EXPECT_TRUE(impossible.clique.empty());
    // delta = 0 answers have even size.
    SearchResult strict = FindMaximumFairClique(g, BaselineOptions(1, 0));
    EXPECT_EQ(strict.clique.size() % 2, 0u);
    // Huge delta equals weak fairness.
    SearchResult loose = FindMaximumFairClique(g, BaselineOptions(1, 1000));
    SearchResult weak = FindMaximumWeakFairClique(g, 1);
    EXPECT_EQ(loose.clique.size(), weak.clique.size());
  }
}

TEST(StressTest, AllOneAttributeGraphsNeverYieldFairCliques) {
  Rng meta(0xA77);
  for (int iter = 0; iter < 10; ++iter) {
    Rng rng(meta.NextU64());
    AttributedGraph g = ErdosRenyi(25, 0.5, rng);  // All kA by default.
    SearchResult r = FindMaximumFairClique(g, BaselineOptions(1, 5));
    EXPECT_TRUE(r.clique.empty());
    HeuristicResult heur = HeurRFC(g, {{1, 5}, 2});
    EXPECT_TRUE(heur.clique.empty());
  }
}

TEST(StressTest, DisconnectedForestsAndSparseDust) {
  // Graphs far below the clique regime: answers only at k=1, delta>=0 with
  // adjacent mixed-attribute pairs.
  Rng meta(0xD57);
  for (int iter = 0; iter < 15; ++iter) {
    AttributedGraph g = RandomAttributedGraph(60, 0.02, meta.NextU64());
    FairnessParams params{1, 0};
    CliqueResult oracle = MaxFairCliqueByEnumeration(g, params);
    SearchResult r = FindMaximumFairClique(g, BaselineOptions(1, 0));
    EXPECT_EQ(r.clique.size(), oracle.size());
  }
}

}  // namespace
}  // namespace fairclique
