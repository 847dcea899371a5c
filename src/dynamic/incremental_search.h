#ifndef FAIRCLIQUE_DYNAMIC_INCREMENTAL_SEARCH_H_
#define FAIRCLIQUE_DYNAMIC_INCREMENTAL_SEARCH_H_

#include <span>

#include "core/max_fair_clique.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Exact re-query of the maximum relative fair clique after edges were
/// *added* to a graph, in time proportional to the added edges' common
/// neighborhoods instead of the whole graph.
///
/// Preconditions (the service layer's cache-migration rules establish them):
///  - `base` is a maximum fair clique of the pre-update graph under
///    `options.params`, and is still a valid fair clique of `g` (insertions
///    never invalidate a clique; removals/attribute changes since the base
///    result must not have touched it — enforced by the caller via the
///    verifier);
///  - every edge of `g` that was not in the pre-update graph is listed in
///    `new_edges` (net additions; stale entries no longer present in `g`
///    are skipped).
///
/// Correctness: a maximum fair clique C of `g` either contains no new edge —
/// then C is a clique of the old graph, so |C| <= |base| — or contains some
/// new edge {u, v}, and then C ⊆ {u, v} ∪ (N(u) ∩ N(v)). Searching each
/// added edge's closed common neighborhood and taking the best of those
/// results and `base` is therefore exact.
///
/// The returned result reports original vertex ids; stats aggregate the
/// local searches. `completed` is false if any local search hit a limit or
/// the time budget ran out between them; `stop_reason` is then the largest
/// of the local searches' reasons, or kTimeLimit for the budget.
SearchResult IncrementalRequery(const AttributedGraph& g,
                                std::span<const Edge> new_edges,
                                const CliqueResult& base,
                                const SearchOptions& options);

}  // namespace fairclique

#endif  // FAIRCLIQUE_DYNAMIC_INCREMENTAL_SEARCH_H_
