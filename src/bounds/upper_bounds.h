#ifndef FAIRCLIQUE_BOUNDS_UPPER_BOUNDS_H_
#define FAIRCLIQUE_BOUNDS_UPPER_BOUNDS_H_

#include <cstdint>
#include <string>

#include "graph/coloring.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Optional expensive bound stacked on top of the ubAD group, matching the
/// six MaxRFC configurations evaluated in Table II of the paper.
enum class ExtraBound {
  kNone,                 // ubAD only
  kDegeneracy,           // + ub_triangle (Lemma 10)
  kHIndex,               // + ubh (Lemma 11)
  kColorfulDegeneracy,   // + ubcd (Lemma 12)
  kColorfulHIndex,       // + ubch (Lemma 13)
  kColorfulPath,         // + ubcp (Lemma 14 / Algorithm 4)
};

/// Short human-readable name ("ubAD", "ubAD+ubcp", ...).
std::string ExtraBoundName(ExtraBound extra);

/// Bound configuration for the branch-and-bound search.
struct UpperBoundConfig {
  /// Apply the ubAD group = min(ubs, uba, ubc, ubac, ubeac) at the top level
  /// of every search branch.
  bool use_advanced = true;
  ExtraBound extra = ExtraBound::kNone;
};

/// All bounds below bound MRFC(R, C) — the size of the maximum relative fair
/// clique inside the subgraph G' induced by R ∪ C — for fairness parameter
/// `delta` (they are independent of k; the search compares them against
/// max(2k, |R*|+1)).
///
/// Where the paper's printed lemma is unsound as stated (Lemmas 9, 10, 11,
/// 12, 13), the implementation uses the corrected sound form and documents
/// the derivation inline at that bound; property tests in
/// tests/upper_bounds_test.cpp verify soundness against an exact oracle.

/// Lemma 5: ubs = |R| + |C| = |V(G')|.
int64_t SizeBound(const AttributedGraph& sub);

/// Lemma 6: the attribute counts cap the total; the delta constraint caps it
/// at 2*min + delta. ubs = min(cnt_a + cnt_b, 2*min(cnt_a, cnt_b) + delta).
int64_t AttributeBound(const AttributedGraph& sub, int delta);

/// Lemma 7: a clique's vertices carry distinct colors, so ubc = #colors.
int64_t ColorBound(const Coloring& coloring);

/// Lemma 8: per-attribute color counts; ubac = min(col_a + col_b,
/// 2*min(col_a, col_b) + delta).
int64_t AttributeColorBound(const AttributedGraph& sub,
                            const Coloring& coloring, int delta);

/// Lemma 9 (sound form): partition colors into a-only/b-only/mixed classes
/// (ca, cb, cm); a fair clique uses at most ca+x colors for a and cb+(cm-x)
/// for b, so ubeac = min(ca+cb+cm, 2*max_x min(ca+x, cb+cm-x) + delta).
int64_t EnhancedAttributeColorBound(const AttributedGraph& sub,
                                    const Coloring& coloring, int delta);

/// Lemma 10 (sound form): a clique of size s forces core numbers >= s-1,
/// hence ub = degeneracy(G') + 1.
int64_t DegeneracyBound(const AttributedGraph& sub);

/// Lemma 11 (sound form): a clique of size s has s vertices of degree >= s-1,
/// hence ub = h(G') + 1.
int64_t HIndexBound(const AttributedGraph& sub);

/// Lemma 12 (sound form): every vertex of a fair clique with minority count m
/// has colorful Dmin >= m-1 inside the clique, so the whole clique lies in
/// the colorful (m-1)-core: m <= colorful_degeneracy + 1 and
/// size <= 2(colorful_degeneracy+1) + delta. Additionally size <=
/// max_v min(Da(v)+Db(v)+2, 2*min(Da,Db)+2+delta) (any clique vertex v
/// bounds it). Returns the min of the two.
int64_t ColorfulDegeneracyBound(const AttributedGraph& sub,
                                const Coloring& coloring, int delta);

/// Lemma 13 (sound form): >= m-1 vertices have colorful Dmin >= m-1, so
/// m <= colorful_h_index + 1; combined with the per-vertex bound as in
/// ColorfulDegeneracyBound.
int64_t ColorfulHIndexBound(const AttributedGraph& sub,
                            const Coloring& coloring, int delta);

/// Lemma 14 / Algorithm 4: length of the longest path in the DAG oriented by
/// (color, id); colors strictly increase along any such path, and a clique's
/// vertices form one, so this bounds the maximum (fair) clique size. Sound
/// as printed in the paper.
int64_t ColorfulPathBound(const AttributedGraph& sub, const Coloring& coloring);

/// The ubAD group: min(ubs, uba, ubc, ubac, ubeac).
int64_t AdvancedBound(const AttributedGraph& sub, const Coloring& coloring,
                      int delta);

/// Evaluates the configured bound on the induced subgraph `sub` (colored
/// internally). Returns the min over the selected component bounds.
int64_t ComputeUpperBound(const AttributedGraph& sub, int delta,
                          const UpperBoundConfig& config);

}  // namespace fairclique

#endif  // FAIRCLIQUE_BOUNDS_UPPER_BOUNDS_H_
