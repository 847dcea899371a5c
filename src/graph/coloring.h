#ifndef FAIRCLIQUE_GRAPH_COLORING_H_
#define FAIRCLIQUE_GRAPH_COLORING_H_

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Vertex orderings for greedy coloring. The paper uses the degree-based
/// greedy coloring ("color all vertices with a degree-based greedy coloring
/// algorithm", Alg. 1 line 1); the degeneracy ordering often yields fewer
/// colors and is provided for ablation.
enum class ColoringOrder {
  kDegreeDescending,  // Welsh-Powell: color high-degree vertices first.
  kDegeneracy,        // Smallest-last (reverse degeneracy) ordering.
  kNatural,           // Vertex id order; baseline.
};

/// Result of a proper vertex coloring: colors are dense in [0, num_colors).
struct Coloring {
  std::vector<ColorId> color;  // size V
  int num_colors = 0;

  ColorId operator[](VertexId v) const { return color[v]; }
};

/// Greedy proper coloring: visit vertices in the chosen order, assign the
/// smallest color absent from already-colored neighbors. Guarantees
/// num_colors <= max_degree + 1. O(V + E) for kNatural/kDegreeDescending
/// (counting sort on degree) and O(V + E) for kDegeneracy.
Coloring GreedyColoring(const AttributedGraph& g,
                        ColoringOrder order = ColoringOrder::kDegreeDescending);

/// Degree-descending greedy coloring of the subgraph `mask` keeps, on g's
/// own vertex ids: vertices in order of their degree within the mask,
/// descending, ties by id, and only alive edges are looked at. Vertices
/// outside the mask get color -1. The reduction pipeline recolors its
/// shrinking survivors this way instead of copying them. The colors and
/// num_colors are those of GreedyColoring(g.FilteredSubgraph(mask)) mapped
/// back through the kept ids, since that renumbering keeps the id order.
/// GreedyColoring(g) is the same with an empty mask. O(V + E).
Coloring GreedyColoring(const AttributedGraph& g, const GraphMask& mask);

/// True when `coloring` is proper for `g` (no edge joins equal colors) and
/// colors are within [0, num_colors).
bool IsProperColoring(const AttributedGraph& g, const Coloring& coloring);

/// Per-vertex colorful degrees (Definition 2): D_a(u) is the number of
/// distinct colors among u's neighbors with attribute a; likewise D_b.
/// Returned as a V-sized vector of AttrCounts.
std::vector<AttrCounts> ColorfulDegrees(const AttributedGraph& g,
                                        const Coloring& coloring);

/// Enhanced colorful degree (Definition 4) for every vertex: partition the
/// colors of u's neighborhood into a-only / b-only / mixed classes of sizes
/// (ca, cb, cm) and return the best achievable min(#a-colors, #b-colors)
/// over assignments of mixed colors to attributes, i.e.
///   ED(u) = max_{0<=x<=cm} min(ca + x, cb + cm - x).
std::vector<int64_t> EnhancedColorfulDegrees(const AttributedGraph& g,
                                             const Coloring& coloring);

/// The balanced-assignment maximum used by the enhanced colorful degree and
/// several bounds: max over x in [0, cm] of min(ca + x, cb + cm - x).
inline int64_t BalancedAssignMin(int64_t ca, int64_t cb, int64_t cm) {
  int64_t lo = ca < cb ? ca : cb;
  int64_t hi = ca < cb ? cb : ca;
  if (lo + cm <= hi) return lo + cm;
  return (lo + hi + cm) / 2;
}

}  // namespace fairclique

#endif  // FAIRCLIQUE_GRAPH_COLORING_H_
