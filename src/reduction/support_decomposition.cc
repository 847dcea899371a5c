#include "reduction/support_decomposition.h"

#include "reduction/colorful_support.h"
#include "reduction/triangle_index.h"

namespace fairclique {

namespace {

// Shared level-by-level driver: level k peels the level (k-1) survivors
// of one edge mask on g through the masked stage entry, with the one
// coloring throughout. That is the fixpoint of a direct
// ColorfulSupReduction(g, coloring, k) call (peeling from any superset of
// the fixpoint converges to it), but far cheaper, and the triangles are
// listed once: compacted to the survivors, each level's index is the next
// level's input.
template <typename Peel>
SupportDecomposition Decompose(const AttributedGraph& g,
                               const Coloring& coloring, Peel&& peel) {
  SupportDecomposition result;
  result.ksup.assign(g.num_edges(), 0);
  std::vector<uint8_t> alive(g.num_edges(), 1);
  TriangleIndex index(g, GraphMask{}, nullptr);
  for (int k = 1;; ++k) {
    peel(g, coloring, k, index, alive);
    // Every surviving edge has ksup >= k.
    bool any = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (alive[e]) result.ksup[e] = k;
      any = any || alive[e];
    }
    if (!any) break;
    result.max_k = k;
    index.Compact(alive);
  }
  return result;
}

}  // namespace

SupportDecomposition ComputeColorfulSupportNumbers(const AttributedGraph& g,
                                                   const Coloring& coloring) {
  return Decompose(g, coloring, ColorfulSupPeel);
}

SupportDecomposition ComputeEnhancedSupportNumbers(const AttributedGraph& g,
                                                   const Coloring& coloring) {
  return Decompose(g, coloring, EnColorfulSupPeel);
}

std::vector<uint8_t> EdgeAliveAtK(const SupportDecomposition& decomposition,
                                  int k) {
  std::vector<uint8_t> alive(decomposition.ksup.size());
  for (size_t e = 0; e < alive.size(); ++e) {
    alive[e] = decomposition.ksup[e] >= k ? 1 : 0;
  }
  return alive;
}

}  // namespace fairclique
