#include "dynamic/incremental_search.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"

namespace fairclique {

SearchResult IncrementalRequery(const AttributedGraph& g,
                                std::span<const Edge> new_edges,
                                const CliqueResult& base,
                                const SearchOptions& options) {
  WallTimer total_timer;
  SearchResult result;
  result.clique = base;
  std::sort(result.clique.vertices.begin(), result.clique.vertices.end());

  // Each local search needs only to beat the incumbent accumulated so far,
  // and per Definition 1 any fair clique has size >= 2k.
  SearchOptions local = options;
  local.warm_start.clear();  // base ids are not local subgraph ids
  local.use_heuristic = false;

  std::vector<VertexId> candidates;
  for (const Edge& e : new_edges) {
    // The caller's time budget covers the whole re-query, not each local
    // search: give every sub-search only what remains, and report an
    // incomplete result once the budget is exhausted.
    if (options.time_limit_seconds > 0.0) {
      double remaining =
          options.time_limit_seconds - total_timer.ElapsedSeconds();
      if (remaining <= 0.0) {
        result.stats.completed = false;
        result.stats.stop_reason = StopReason::kTimeLimit;
        break;
      }
      local.time_limit_seconds = remaining;
    }
    if (e.u >= g.num_vertices() || e.v >= g.num_vertices()) continue;
    if (!g.HasEdge(e.u, e.v)) continue;  // stale: added then removed again

    // Closed common neighborhood {u, v} ∪ (N(u) ∩ N(v)), sorted.
    candidates.clear();
    std::span<const VertexId> nu = g.neighbors(e.u);
    std::span<const VertexId> nv = g.neighbors(e.v);
    std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                          std::back_inserter(candidates));
    candidates.push_back(e.u);
    candidates.push_back(e.v);

    int64_t floor = std::max<int64_t>(
        2 * options.params.k, static_cast<int64_t>(result.clique.size()) + 1);
    if (static_cast<int64_t>(candidates.size()) < floor) continue;

    std::vector<VertexId> original_ids;
    AttributedGraph sub = g.InducedSubgraph(candidates, &original_ids);
    SearchResult local_result = FindMaximumFairClique(sub, local);

    result.stats.nodes += local_result.stats.nodes;
    result.stats.bound_prunes += local_result.stats.bound_prunes;
    result.stats.size_prunes += local_result.stats.size_prunes;
    result.stats.attr_prunes += local_result.stats.attr_prunes;
    result.stats.cap_removals += local_result.stats.cap_removals;
    if (!local_result.stats.completed) result.stats.completed = false;
    result.stats.stop_reason =
        std::max(result.stats.stop_reason, local_result.stats.stop_reason);

    if (local_result.clique.size() > result.clique.size()) {
      result.clique.attr_counts = local_result.clique.attr_counts;
      result.clique.vertices.clear();
      for (VertexId v : local_result.clique.vertices) {
        result.clique.vertices.push_back(original_ids[v]);
      }
      std::sort(result.clique.vertices.begin(), result.clique.vertices.end());
    }
  }

  result.stats.search_micros = total_timer.ElapsedMicros();
  result.stats.total_micros = result.stats.search_micros;
  return result;
}

}  // namespace fairclique
