#ifndef FAIRCLIQUE_REDUCTION_COLORFUL_SUPPORT_H_
#define FAIRCLIQUE_REDUCTION_COLORFUL_SUPPORT_H_

#include <cstdint>
#include <vector>

#include "graph/coloring.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

class ParallelHelpers;
class TriangleIndex;  // reduction/triangle_index.h

/// Result of an edge-peeling (truss-style) reduction: flags per edge and per
/// vertex (a vertex dies when all its edges die) plus summary counts.
struct EdgeReductionResult {
  std::vector<uint8_t> edge_alive;    // size E
  std::vector<uint8_t> vertex_alive;  // size V
  VertexId vertices_left = 0;
  EdgeId edges_left = 0;
};

/// The reduction result of an edge mask: `edge_alive` itself, the vertices
/// with an alive edge, and their counts.
EdgeReductionResult EdgeSurvivors(const AttributedGraph& g,
                                  std::vector<uint8_t> edge_alive);

/// Colorful support of every edge (Definition 6): sup_ai(u,v) = number of
/// distinct colors among common neighbors of u and v having attribute ai.
/// Exposed for tests and diagnostics. Builds the same triangle index as the
/// reductions below: time O(alpha * E + T), space O(E + T) slots, where T is
/// the number of triangles.
std::vector<AttrCounts> ComputeColorfulSupports(const AttributedGraph& g,
                                                const Coloring& coloring);

/// ColorfulSup reduction (Algorithm 1 / Lemma 3): iteratively removes every
/// edge whose colorful support violates the attribute-dependent thresholds
///   A(u)=A(v)=a : sup_a >= k-2 and sup_b >= k
///   A(u)=A(v)=b : sup_a >= k   and sup_b >= k-2
///   mixed       : sup_a >= k-1 and sup_b >= k-1
/// The surviving subgraph contains every relative fair clique with size
/// parameter k.
///
/// The triangles are listed once over the degree-oriented graph into an
/// edge->triangle index (one slot per triangle per edge); a removed edge
/// then walks only its own slots. The peel runs in two phases:
///
///  1. Count phase. The same thresholds applied to the number of common
///     neighbors of each attribute, not of distinct colors (the support
///     count peel of truss decomposition), on the unsorted slots. A lost
///     triangle decrements one counter; there are no keys and no runs.
///  2. Color phase. Each surviving edge's slots are compacted to the
///     triangles whose three edges survived and sorted into (color, attr)
///     runs, the paper's M_e entries. The exact colorful peel then starts
///     from the count survivors; a count-killed edge counts as processed.
///
/// The result is exactly Lemma 3's fixpoint. An edge has at most as many
/// distinct colors of an attribute as neighbors of it, so every edge that
/// passes the colorful test in a subgraph passes the count test there: the
/// count survivors contain the colorful fixpoint. Both tests are monotone
/// (an edge that passes in a subgraph passes in every supergraph), so the
/// colorful peel from any superset of the fixpoint reaches it. Color work
/// (key computation, run sort, the binary search and run scan per
/// decrement) touches only the survivors' slots.
///
/// Time O(alpha * E + T), where T is the number of triangles, plus, per
/// color-phase support decrement, a binary search over the side edge's
/// slots and a scan of one run. Space O(E + T) slots. The count phase adds
/// no memory: its counters become the colorful supports, the compaction
/// moves slots down without reallocating, and the run flags are sized to
/// the compacted slots.
///
/// `helpers` (common/parallel_for.h) may run the index build's passes: the
/// orientation rows, the triangle listing, the slot count and fill, the
/// attribute count and the run sort. The peels and the compaction are
/// serial. The result does not depend on the helpers.
EdgeReductionResult ColorfulSupReduction(const AttributedGraph& g,
                                         const Coloring& coloring, int k,
                                         ParallelHelpers* helpers = nullptr);

/// The masked stage entry behind ColorfulSupReduction, which calls it with
/// every edge alive. `alive` (size E) names the stage's input, the alive
/// edges of g, and `index` must hold exactly their triangles, the ones
/// whose three edges are alive, in any slot order: a TriangleIndex of g
/// with every edge alive, or an earlier peel's index after
/// `index.Compact(alive)`. `coloring` need only cover the endpoints of
/// alive edges. The peel clears the removed edges in `alive`. The index
/// keeps the input's triangles; Compact(alive) then leaves exactly those
/// whose three edges survived, the input triangles of a later support peel
/// on the survivors. That hand-off is how the pipeline lists triangles
/// once.
void ColorfulSupPeel(const AttributedGraph& g, const Coloring& coloring, int k,
                     TriangleIndex& index, std::vector<uint8_t>& alive);

/// Enhanced colorful support reduction (Definition 7 / Lemma 4): like
/// ColorfulSup, but colors of the common neighborhood are partitioned into
/// a-only / b-only / mixed classes and each mixed color counts toward only
/// one attribute. An edge with endpoint-attribute thresholds (ta, tb)
/// survives iff  max(0, ta-ca) + max(0, tb-cb) <= cm  (the greedy assignment
/// of Definition 7 succeeds exactly in this case). Strictly stronger than
/// ColorfulSup. Same index, bounds and helpers as ColorfulSupReduction,
/// but a single color phase over all slots: in the pipeline its input is
/// ColorfulSup's output, which a count phase would leave unchanged.
EdgeReductionResult EnColorfulSupReduction(const AttributedGraph& g,
                                           const Coloring& coloring, int k,
                                           ParallelHelpers* helpers = nullptr);

/// The masked stage entry behind EnColorfulSupReduction, with the contract
/// of ColorfulSupPeel. Taking over the index ColorfulSupPeel left, it lists
/// no triangles: it re-keys the slots under its own `coloring` and sorts
/// them into runs again.
void EnColorfulSupPeel(const AttributedGraph& g, const Coloring& coloring,
                       int k, TriangleIndex& index,
                       std::vector<uint8_t>& alive);

/// Greedy mixed-color assignment of Definition 7, exposed for tests: given
/// class sizes and thresholds, returns the per-attribute enhanced colorful
/// supports (gsup_a, gsup_b) produced by assigning to attribute a first.
AttrCounts GreedyEnhancedSupport(int64_t ca, int64_t cb, int64_t cm,
                                 int64_t ta, int64_t tb);

/// Thresholds (ta, tb) used by both reductions for an edge whose endpoints
/// carry `au` and `av` (Lemma 3 / Lemma 4 case analysis).
inline void SupportThresholds(Attribute au, Attribute av, int k, int64_t* ta,
                              int64_t* tb) {
  if (au == Attribute::kA && av == Attribute::kA) {
    *ta = k - 2;
    *tb = k;
  } else if (au == Attribute::kB && av == Attribute::kB) {
    *ta = k;
    *tb = k - 2;
  } else {
    *ta = k - 1;
    *tb = k - 1;
  }
}

}  // namespace fairclique

#endif  // FAIRCLIQUE_REDUCTION_COLORFUL_SUPPORT_H_
