#include "reduction/reduce.h"

#include <numeric>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "graph/coloring.h"
#include "obs/profiler.h"
#include "reduction/colorful_core.h"
#include "reduction/colorful_support.h"
#include "reduction/triangle_index.h"

namespace fairclique {

ReductionPipelineResult ReduceForFairClique(const AttributedGraph& g, int k,
                                            const ReductionOptions& options,
                                            ParallelHelpers* helpers) {
  ReductionPipelineResult result;
  // The graph the support stages run on: g itself, or the copy of
  // EnColorfulCore's survivors, whose vertex i is g's vertex
  // result.original_ids[i].
  AttributedGraph current = g;
  // The support stages' survivors as a GraphMask over `current`: both empty
  // until the first support stage has run.
  std::vector<uint8_t> vertex_alive;
  std::vector<uint8_t> edge_alive;
  // Listed by the first support stage and handed on to the second.
  std::optional<TriangleIndex> triangles;

  auto run_stage = [&](const char* name, auto&& stage_fn) {
    // The stage names below are string literals, which is what lets the
    // profiler tag the scope by pointer identity.
    obs::ProfileScope profile_scope(name);
    WallTimer timer;
    const Coloring coloring =
        GreedyColoring(current, GraphMask{vertex_alive, edge_alive});
    const auto [vertices_left, edges_left] = stage_fn(coloring);
    result.stages.push_back(
        {name, vertices_left, edges_left, timer.ElapsedMicros()});
  };
  auto support_stage = [&](const char* name, auto peel) {
    run_stage(name, [&](const Coloring& coloring) {
      if (triangles) {
        // The hand-off: keep the triangles whose three edges survived.
        triangles->Compact(edge_alive);
      } else {
        triangles.emplace(current, helpers);
        edge_alive.assign(current.num_edges(), 1);
      }
      peel(current, coloring, k, *triangles, edge_alive);
      EdgeReductionResult r = EdgeSurvivors(current, std::move(edge_alive));
      edge_alive = std::move(r.edge_alive);
      vertex_alive = std::move(r.vertex_alive);
      return std::pair{r.vertices_left, r.edges_left};
    });
  };

  if (options.use_en_colorful_core) {
    // Lemma 2: fair cliques live in the enhanced colorful (k-1)-core. It is
    // the first stage, so it runs on the whole graph; its survivors are
    // copied once, and the support stages run on that copy.
    run_stage("EnColorfulCore", [&](const Coloring& coloring) {
      VertexReductionResult r = EnColorfulCore(g, coloring, k - 1, helpers);
      current = g.FilteredSubgraph(r.alive, {}, &result.original_ids);
      return std::pair{r.vertices_left, r.edges_left};
    });
  } else {
    result.original_ids.resize(g.num_vertices());
    std::iota(result.original_ids.begin(), result.original_ids.end(), 0);
  }
  if (options.use_colorful_sup) support_stage("ColorfulSup", ColorfulSupPeel);
  if (options.use_en_colorful_sup) {
    support_stage("EnColorfulSup", EnColorfulSupPeel);
  }
  triangles.reset();

  if (!options.use_colorful_sup && !options.use_en_colorful_sup) {
    // No support stage: `current` is g itself (shared, not copied) or
    // EnColorfulCore's survivor copy.
    result.reduced = std::move(current);
    return result;
  }
  // The final copy, charged to the last stage. Its renumbering keeps the id
  // order, so composing it with original_ids keeps them increasing.
  WallTimer timer;
  std::vector<VertexId> kept;
  result.reduced = current.FilteredSubgraph(vertex_alive, edge_alive, &kept);
  for (VertexId& v : kept) v = result.original_ids[v];
  result.original_ids = std::move(kept);
  result.stages.back().micros += timer.ElapsedMicros();
  return result;
}

}  // namespace fairclique
