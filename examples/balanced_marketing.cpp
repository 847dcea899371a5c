// Balanced influencer-group discovery on a social network (the paper's NBA
// case study / product-marketing motivation): find the largest tightly-knit
// group containing both local (a) and overseas (b) members, and show how the
// linear-time heuristic compares with the exact search.
//
//   $ ./build/examples/balanced_marketing

#include <cstdio>

#include "core/fairclique.h"
#include "datasets/datasets.h"

int main() {
  using namespace fairclique;
  SetLogLevel(LogLevel::kWarning);

  // A social network with strong nationality homophily (players cluster by
  // league/country) and a few cross-cutting star cliques.
  Rng rng(42);
  AttributedGraph g = ChungLuPowerLaw(1200, 12.0, 2.3, rng);
  g = AssignAttributesHomophily(g, 0.6, 0.7, rng);
  for (uint32_t size : {10u, 12u, 14u}) {
    g = PlantClique(g, size, /*balanced=*/true, rng, nullptr);
  }
  std::printf("social network: %u members, %u ties; %lld local, %lld overseas\n\n",
              g.num_vertices(), g.num_edges(),
              static_cast<long long>(g.attribute_counts().a()),
              static_cast<long long>(g.attribute_counts().b()));

  const int k = 5;      // At least 5 local and 5 overseas stars.
  const int delta = 3;  // Allow a gap of at most 3 between the groups.
  FairnessParams params{k, delta};

  // Fast path: the linear-time heuristic (HeurRFC).
  WallTimer heur_timer;
  HeuristicResult heur = HeurRFC(g, params);
  int64_t heur_us = heur_timer.ElapsedMicros();

  // Exact path: full MaxRFC with bounds and heuristic priming.
  SearchResult exact =
      FindMaximumFairClique(g, FullOptions(k, delta, ExtraBound::kColorfulPath));

  std::printf("%-34s %8s %8s %8s %12s\n", "method", "group", "local",
              "overseas", "micros");
  std::printf("%-34s %8zu %8lld %8lld %12lld\n", "HeurRFC (linear time)",
              heur.clique.size(),
              static_cast<long long>(heur.clique.attr_counts.a()),
              static_cast<long long>(heur.clique.attr_counts.b()),
              static_cast<long long>(heur_us));
  std::printf("%-34s %8zu %8lld %8lld %12lld\n",
              "MaxRFC+ub+HeurRFC (exact)", exact.clique.size(),
              static_cast<long long>(exact.clique.attr_counts.a()),
              static_cast<long long>(exact.clique.attr_counts.b()),
              static_cast<long long>(exact.stats.total_micros));
  std::printf("\nheuristic color-count upper bound: %lld (exact answer %zu)\n",
              static_cast<long long>(heur.color_upper_bound),
              exact.clique.size());

  // Sanity: both results are verified fair cliques; heuristic <= exact.
  bool ok = exact.clique.size() >= heur.clique.size() &&
            VerifyFairClique(g, exact.clique.vertices, params).ok() &&
            (heur.clique.empty() ||
             VerifyFairClique(g, heur.clique.vertices, params).ok());
  std::printf("consistency checks: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}
