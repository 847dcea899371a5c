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
  // The survivors as a GraphMask: both empty at first, and edge_alive stays
  // empty after EnColorfulCore, whose survivors are an induced subgraph.
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
        GreedyColoring(g, GraphMask{vertex_alive, edge_alive});
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
        const GraphMask mask{vertex_alive, edge_alive};
        triangles.emplace(g, mask, helpers);
        if (edge_alive.empty()) {
          edge_alive.resize(g.num_edges());
          for (EdgeId e = 0; e < g.num_edges(); ++e) {
            edge_alive[e] =
                mask.vertex(g.edges()[e].u) && mask.vertex(g.edges()[e].v);
          }
        }
      }
      peel(g, coloring, k, *triangles, edge_alive);
      EdgeReductionResult r = EdgeSurvivors(g, std::move(edge_alive));
      edge_alive = std::move(r.edge_alive);
      vertex_alive = std::move(r.vertex_alive);
      return std::pair{r.vertices_left, r.edges_left};
    });
  };

  if (options.use_en_colorful_core) {
    // Lemma 2: fair cliques live in the enhanced colorful (k-1)-core. It is
    // the first stage, so it runs on the whole graph.
    run_stage("EnColorfulCore", [&](const Coloring& coloring) {
      VertexReductionResult r = EnColorfulCore(g, coloring, k - 1, helpers);
      vertex_alive = std::move(r.alive);
      return std::pair{r.vertices_left, r.edges_left};
    });
  }
  if (options.use_colorful_sup) support_stage("ColorfulSup", ColorfulSupPeel);
  if (options.use_en_colorful_sup) {
    support_stage("EnColorfulSup", EnColorfulSupPeel);
  }
  triangles.reset();

  if (result.stages.empty()) {
    // Nothing ran: share g's store instead of copying it.
    result.reduced = g;
    result.original_ids.resize(g.num_vertices());
    std::iota(result.original_ids.begin(), result.original_ids.end(), 0);
    return result;
  }
  // The one copy, charged to the last stage.
  WallTimer timer;
  result.reduced =
      g.FilteredSubgraph(vertex_alive, edge_alive, &result.original_ids);
  result.stages.back().micros += timer.ElapsedMicros();
  return result;
}

}  // namespace fairclique
