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

/// Sizes after one reduction stage.
struct ReductionStageStats {
  std::string name;
  VertexId vertices_left = 0;
  EdgeId edges_left = 0;
  int64_t micros = 0;
};

/// Result of the staged reduction pipeline. `reduced` is the materialized
/// surviving subgraph; `original_ids[i]` maps its vertex i back to the input
/// graph.
struct ReductionPipelineResult {
  AttributedGraph reduced;
  std::vector<VertexId> original_ids;
  std::vector<ReductionStageStats> stages;
};

/// Runs EnColorfulCore -> ColorfulSup -> EnColorfulSup (subject to
/// `options`), recoloring the shrinking graph before each stage. Every
/// relative fair clique with parameters (k, *) of `g` survives in the result
/// (Lemmas 2-4); reductions are independent of delta.
///
/// `helpers` (common/parallel_for.h) may run the stages' data-parallel
/// passes (color maps, triangle index build, count pass, run sort) that
/// walk at least kParallelMinWork edges or triangles. Coloring, the peels
/// and the subgraph copies stay on the caller. The result does not depend
/// on the helpers.
ReductionPipelineResult ReduceForFairClique(const AttributedGraph& g, int k,
                                            const ReductionOptions& options,
                                            ParallelHelpers* helpers = nullptr);

}  // namespace fairclique

#endif  // FAIRCLIQUE_REDUCTION_REDUCE_H_
