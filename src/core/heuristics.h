#ifndef FAIRCLIQUE_CORE_HEURISTICS_H_
#define FAIRCLIQUE_CORE_HEURISTICS_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Result of a heuristic run: the fair clique found (empty when the greedy
/// pass ends with fewer than k of an attribute), plus the color-count upper
/// bound computed by HeurRFC (Algorithm 6 lines 9-10; 0 when not computed).
/// The bound holds for every clique of the input, fair or not: when the
/// clique reaches it, the clique is a maximum clique and therefore a
/// maximum fair clique for every k and delta (a certificate).
struct HeuristicResult {
  CliqueResult clique;
  int64_t color_upper_bound = 0;
};

/// DegHeur (Algorithm 5): greedily grows one clique from the highest-degree
/// vertex (ties to the lower id) by repeatedly adding the highest-degree
/// candidate of the alternating attribute, with the paper's
/// amax cap (lines 9-13) bounding the majority side at (minority + delta).
/// An unfair grown clique is trimmed to its best fair subset by dropping
/// the majority vertices added last; the result is empty when no fair
/// subset exists (fewer than k of an attribute). O(V + E).
CliqueResult DegHeur(const AttributedGraph& g, const FairnessParams& params);

/// ColorfulDegHeur: DegHeur with selection key min(D_a(v), D_b(v)) — the
/// colorful degree (Definition 2) under a greedy coloring — instead of
/// degree. O(V + E).
CliqueResult ColorfulDegHeur(const AttributedGraph& g,
                             const FairnessParams& params);

/// HeurRFC (Algorithm 6): runs DegHeur, shrinks the graph to the
/// (|R*|-1)-core, runs ColorfulDegHeur on the remainder, keeps the larger
/// fair clique, and reports the color count of the remainder's
/// (|R*|-1)-core for the kept R* (colored through a GraphMask, not copied)
/// as an upper bound on the maximum clique size. Every clique larger than
/// R* lies in that core. When ColorfulDegHeur's coloring of the whole
/// remainder already uses at most |R*| colors, the bound is |R*| and the
/// core is not colored again: it contains R*, so no coloring of it uses
/// fewer. O(V + E).
HeuristicResult HeurRFC(const AttributedGraph& g, const FairnessParams& params);

}  // namespace fairclique

#endif  // FAIRCLIQUE_CORE_HEURISTICS_H_
