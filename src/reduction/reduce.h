#ifndef FAIRCLIQUE_REDUCTION_REDUCE_H_
#define FAIRCLIQUE_REDUCTION_REDUCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

class ParallelHelpers;

/// Which reduction stages the pipeline runs, in the paper's order
/// (Algorithm 2 lines 1-3). Each stage can be toggled for ablation.
struct ReductionOptions {
  bool use_en_colorful_core = true;  // EnColorfulCore(g, k-1), Lemma 2
  bool use_colorful_sup = true;      // ColorfulSup(g, k), Lemma 3
  bool use_en_colorful_sup = true;   // EnColorfulSup(g, k), Lemma 4
};

/// Sizes after one reduction stage: those of the subgraph it keeps, which
/// is what FilteredSubgraph would copy at that point.
struct ReductionStageStats {
  std::string name;
  VertexId vertices_left = 0;
  EdgeId edges_left = 0;
  // EnColorfulCore's includes the copy of its survivors, and the last
  // support stage's the final copy.
  int64_t micros = 0;
};

/// Result of the staged reduction pipeline. `reduced` is the materialized
/// surviving subgraph; `original_ids[i]` maps its vertex i back to the input
/// graph (the kept vertices in increasing order).
struct ReductionPipelineResult {
  AttributedGraph reduced;
  std::vector<VertexId> original_ids;
  std::vector<ReductionStageStats> stages;
};

/// Runs EnColorfulCore -> ColorfulSup -> EnColorfulSup (subject to
/// `options`). Every relative fair clique with parameters (k, *) of `g`
/// survives in the result (Lemmas 2-4); reductions are independent of
/// delta.
///
/// Each stage recolors its input with GreedyColoring first. EnColorfulCore
/// runs on g, starting its peel from the plain 2(k-1)-core, and its
/// survivors are copied once (FilteredSubgraph). The support stages run on
/// that copy plus a vertex and an edge alive mask (GraphMask), recoloring
/// with the masked GreedyColoring, and their survivors are copied once more
/// at the end; with no support stage `reduced` is EnColorfulCore's copy,
/// and with every stage off it shares g. The first support stage lists the
/// copy's triangles into a TriangleIndex. Compacted to the triangles whose
/// three edges survived its peel, that index is the second support stage's
/// input, re-keyed under its own coloring, not listed again. The result
/// equals chaining the public stage functions with a FilteredSubgraph copy
/// after each: that renumbering keeps the id order, so colorings agree, and
/// every stage's fixpoint is unique, so a peel started from a superset of
/// it (the degree core) or run on a copy reaches the same one.
///
/// `helpers` (common/parallel_for.h) may run the stages' data-parallel
/// passes (color maps, orientation, triangle listing and slot fill, count
/// pass, run sort) that walk at least kParallelMinWork edges or triangles.
/// Coloring, the peels, the index compaction and the copies stay on the
/// caller. The result does not depend on the helpers.
ReductionPipelineResult ReduceForFairClique(const AttributedGraph& g, int k,
                                            const ReductionOptions& options,
                                            ParallelHelpers* helpers = nullptr);

}  // namespace fairclique

#endif  // FAIRCLIQUE_REDUCTION_REDUCE_H_
