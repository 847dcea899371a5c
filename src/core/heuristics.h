#ifndef FAIRCLIQUE_CORE_HEURISTICS_H_
#define FAIRCLIQUE_CORE_HEURISTICS_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Result of a heuristic run: the fair clique found (empty when the greedy
/// pass ends on an unfair clique), plus the color-count upper bound computed
/// by HeurRFC (Algorithm 6 lines 9-10; 0 when not computed).
struct HeuristicResult {
  CliqueResult clique;
  int64_t color_upper_bound = 0;
};

/// DegHeur (Algorithm 5): greedily grows one clique from the highest-degree
/// vertex (ties to the lower id) by repeatedly adding the highest-degree
/// candidate of the alternating attribute, with the paper's
/// amax cap (lines 9-13) bounding the majority side at (minority + delta).
/// Returns an empty clique when the greedy pass fails fairness. O(V + E).
CliqueResult DegHeur(const AttributedGraph& g, const FairnessParams& params);

/// ColorfulDegHeur: DegHeur with selection key min(D_a(v), D_b(v)) — the
/// colorful degree (Definition 2) under a greedy coloring — instead of
/// degree. O(V + E).
CliqueResult ColorfulDegHeur(const AttributedGraph& g,
                             const FairnessParams& params);

/// HeurRFC (Algorithm 6): runs DegHeur, shrinks the graph to the
/// (|R*|-1)-core, runs ColorfulDegHeur on the remainder, keeps the larger
/// fair clique, shrinks again, and reports the surviving graph's color count
/// as an upper bound on the maximum fair clique size. O(V + E).
HeuristicResult HeurRFC(const AttributedGraph& g, const FairnessParams& params);

}  // namespace fairclique

#endif  // FAIRCLIQUE_CORE_HEURISTICS_H_
