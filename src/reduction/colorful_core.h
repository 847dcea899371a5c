#ifndef FAIRCLIQUE_REDUCTION_COLORFUL_CORE_H_
#define FAIRCLIQUE_REDUCTION_COLORFUL_CORE_H_

#include <cstdint>
#include <vector>

#include "graph/coloring.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

class ParallelHelpers;

/// Result of a vertex-peeling reduction: per-vertex alive flags plus summary
/// counts of the surviving subgraph.
struct VertexReductionResult {
  std::vector<uint8_t> alive;  // size V, 1 = kept
  VertexId vertices_left = 0;
  EdgeId edges_left = 0;
};

/// Colorful k-core (Definition 3): the maximal subgraph H where every vertex
/// has at least `k` distinct neighbor colors in each attribute class,
/// min{D_a(u,H), D_b(u,H)} >= k. By Lemma 1, every relative fair clique with
/// parameter k is contained in the colorful (k-1)-core, so callers pass
/// k-1 for reduction.
///
/// O(V + E * 1) peeling with per-(vertex, attribute, color) counters;
/// space O(sum deg) via per-vertex color maps.
VertexReductionResult ColorfulCore(const AttributedGraph& g,
                                   const Coloring& coloring, int k);

/// Enhanced colorful k-core (Definition 5): like ColorfulCore but colors are
/// assigned exclusively to one attribute; a vertex survives while its
/// enhanced colorful degree ED(u) = max_x min(ca+x, cb+cm-x) >= k (see
/// EnhancedColorfulDegrees). By Lemma 2 fair cliques live in the enhanced
/// colorful (k-1)-core.
///
/// The peel starts from the plain 2k-core (KCoreAliveFlags, no colors):
/// ED(u) <= (ca+cb+cm)/2, so a survivor sees 2k distinct neighbor colors
/// and has 2k neighbors among the survivors, which puts the fixpoint inside
/// that core; the peel is monotone, so it reaches the same fixpoint from
/// any superset. Only core vertices and their core neighbors enter the
/// color maps: beyond the O(V + E) degree peel, the work is that of the
/// core. `helpers` (common/parallel_for.h) may build the color maps; the
/// peels are serial, and the result does not depend on the helpers.
VertexReductionResult EnColorfulCore(const AttributedGraph& g,
                                     const Coloring& coloring, int k,
                                     ParallelHelpers* helpers = nullptr);

/// Full colorful core decomposition: colorful core number ccore(v) =
/// largest k such that v survives in the colorful k-core (Definition 8), the
/// peeling order (used as the paper's CalColorOD vertex ordering for the
/// branch-and-bound) and the colorful degeneracy (Definition 9).
struct ColorfulCoreDecomposition {
  std::vector<uint32_t> ccore;      // size V
  std::vector<VertexId> peel_order; // all vertices, peeling order
  std::vector<uint32_t> position;   // inverse of peel_order
  uint32_t colorful_degeneracy = 0;
};

ColorfulCoreDecomposition ComputeColorfulCores(const AttributedGraph& g,
                                               const Coloring& coloring);

}  // namespace fairclique

#endif  // FAIRCLIQUE_REDUCTION_COLORFUL_CORE_H_
