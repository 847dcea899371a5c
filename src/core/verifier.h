#ifndef FAIRCLIQUE_CORE_VERIFIER_H_
#define FAIRCLIQUE_CORE_VERIFIER_H_

#include <span>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// True when `vertices` (distinct ids) induce a complete subgraph of `g`.
/// O(s^2 log d).
bool IsClique(const AttributedGraph& g, std::span<const VertexId> vertices);

/// Attribute counts of a vertex set.
AttrCounts CountAttributes(const AttributedGraph& g,
                           std::span<const VertexId> vertices);

/// True when `vertices` is a clique satisfying fairness condition (i) of
/// Definition 1 for (k, delta): both attribute counts >= k and their
/// difference <= delta. Maximality is not required: in the paper's Example 1
/// the maximum fair clique is 7 vertices of an 8-clique that is not fair.
bool IsFairClique(const AttributedGraph& g,
                  std::span<const VertexId> vertices,
                  const FairnessParams& params);

/// Detailed verification with a diagnostic message on failure: checks vertex
/// range, distinctness, completeness, and fairness.
Status VerifyFairClique(const AttributedGraph& g,
                        std::span<const VertexId> vertices,
                        const FairnessParams& params);

}  // namespace fairclique

#endif  // FAIRCLIQUE_CORE_VERIFIER_H_
