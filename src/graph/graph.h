#ifndef FAIRCLIQUE_GRAPH_GRAPH_H_
#define FAIRCLIQUE_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace fairclique {

/// An immutable, undirected, vertex-attributed graph in CSR (compressed
/// sparse row) form.
///
/// Invariants (established by GraphBuilder and preserved by all views):
///  - no self-loops, no parallel edges;
///  - every adjacency list is sorted by neighbor id (enables O(deg_min)
///    common-neighbor intersection, the workhorse of the support reductions);
///  - `edges()` lists each undirected edge exactly once with u < v, sorted;
///  - `edge_ids(u)[i]` is the EdgeId of the edge {u, neighbors(u)[i]}, so
///    edge-indexed algorithms (truss-style peeling) can walk CSR rows and
///    address per-edge state in O(1).
///
/// The CSR arrays live behind spans into a shared, immutable backing store:
/// either arrays built by GraphBuilder, or an mmap'd FCG2 snapshot adopted
/// via FromCsr (storage/fcg2.h) — the algorithms never see the difference.
/// Copying a graph shares the backing store, so copies are O(1).
class AttributedGraph {
 public:
  AttributedGraph() = default;

  VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  /// Sorted neighbor list of `v`.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// Edge ids parallel to neighbors(v).
  std::span<const EdgeId> edge_ids(VertexId v) const {
    return {adjacency_edge_ids_.data() + offsets_[v],
            adjacency_edge_ids_.data() + offsets_[v + 1]};
  }

  uint32_t degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Maximum vertex degree (0 for an empty graph).
  uint32_t max_degree() const { return max_degree_; }

  Attribute attribute(VertexId v) const {
    return static_cast<Attribute>(attributes_[v]);
  }

  /// Number of vertices per attribute over the whole graph.
  AttrCounts attribute_counts() const { return attr_counts_; }

  /// The undirected edge list; edges()[e] has u < v and the list is sorted.
  std::span<const Edge> edges() const { return edges_; }

  /// Raw CSR views, exposed for serialization (storage/fcg2.h writes them
  /// byte-for-byte). Same data the span accessors above slice per vertex.
  std::span<const uint64_t> csr_offsets() const { return offsets_; }
  std::span<const VertexId> csr_adjacency() const { return adjacency_; }
  std::span<const EdgeId> csr_edge_ids() const { return adjacency_edge_ids_; }
  std::span<const uint8_t> attribute_bytes() const { return attributes_; }

  /// Adopts prebuilt CSR arrays without copying or re-normalizing: the spans
  /// must satisfy every invariant documented above and stay valid for as
  /// long as `keeper` is alive (the graph retains it — typically an mmap'd
  /// file). Basic shape consistency is FC_CHECKed; content validation is the
  /// caller's job (the FCG2 loader verifies per-section checksums instead of
  /// re-deriving the arrays, which is what makes mmap loads cheap).
  static AttributedGraph FromCsr(std::span<const uint64_t> offsets,
                                 std::span<const VertexId> adjacency,
                                 std::span<const EdgeId> adjacency_edge_ids,
                                 std::span<const Edge> edges,
                                 std::span<const uint8_t> attributes,
                                 uint32_t max_degree,
                                 std::shared_ptr<const void> keeper);

  /// True if {u, v} is an edge. O(log(min deg)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// EdgeId of {u, v}, or kInvalidEdge when not adjacent. O(log(min deg)).
  EdgeId FindEdge(VertexId u, VertexId v) const;

  /// Extracts the subgraph induced by `vertices` (need not be sorted;
  /// duplicates are an error). Vertex i of the result corresponds to
  /// vertices[i] of this graph; the mapping back is returned through
  /// `original_ids` when non-null.
  AttributedGraph InducedSubgraph(std::span<const VertexId> vertices,
                                  std::vector<VertexId>* original_ids = nullptr) const;

  /// Extracts the subgraph on the vertices with alive[v] == true, dropping
  /// additionally every edge with edge_alive[e] == false (pass an empty span
  /// to keep all surviving-endpoint edges). Used to materialize reduction
  /// results. Walks only the kept vertices' rows: O(V + their degrees).
  AttributedGraph FilteredSubgraph(std::span<const uint8_t> vertex_alive,
                                   std::span<const uint8_t> edge_alive,
                                   std::vector<VertexId>* original_ids = nullptr) const;

  /// Splits the graph into connected components; each entry is the vertex set
  /// of one component (sorted, in discovery order of the lowest vertex).
  std::vector<std::vector<VertexId>> ConnectedComponents() const;

  /// Internal consistency check (sorted adjacency, symmetric edges, edge id
  /// wiring). Intended for tests; O(V + E log E).
  Status Validate() const;

 private:
  friend class GraphBuilder;

  /// Arrays owned by graphs built in memory; FromCsr graphs view foreign
  /// memory (their keeper_) and leave this null.
  struct OwnedCsr {
    std::vector<uint64_t> offsets;            // size V+1
    std::vector<VertexId> adjacency;          // size 2E, sorted per row
    std::vector<EdgeId> adjacency_edge_ids;   // parallel to adjacency
    std::vector<Edge> edges;                  // size E, u < v, sorted
    std::vector<uint8_t> attributes;          // size V
  };

  /// The graph of `store`'s edges (sorted, no duplicates, u < v) and
  /// attributes: fills the CSR rows and adopts the store.
  static AttributedGraph FromEdges(std::shared_ptr<OwnedCsr> store);

  /// Keeps the bytes behind the spans alive: an OwnedCsr or an arbitrary
  /// holder (mmap'd file). Shared between copies — the store is immutable.
  std::shared_ptr<const void> keeper_;
  std::span<const uint64_t> offsets_;
  std::span<const VertexId> adjacency_;
  std::span<const EdgeId> adjacency_edge_ids_;
  std::span<const Edge> edges_;
  std::span<const uint8_t> attributes_;
  AttrCounts attr_counts_;
  uint32_t max_degree_ = 0;
};

/// A subgraph named by alive flags over a graph's own vertex and edge ids,
/// without a copy: the form in which the reduction stages hand their
/// survivors on. The rule is FilteredSubgraph's: an empty vertex_alive
/// keeps every vertex, an empty edge_alive every edge between alive
/// vertices (the induced subgraph). A sized edge_alive must keep only edges
/// whose endpoints are alive, so that it alone decides. FilteredSubgraph(
/// vertex_alive, edge_alive) materializes the mask; its renumbering is
/// monotone, so id order within the mask is id order in the copy.
struct GraphMask {
  std::span<const uint8_t> vertex_alive;
  std::span<const uint8_t> edge_alive;

  bool vertex(VertexId v) const {
    return vertex_alive.empty() || vertex_alive[v] != 0;
  }
};

/// Number of alive edges at v: 0 when v is not alive.
inline uint32_t AliveDegree(const AttributedGraph& g, const GraphMask& mask,
                            VertexId v) {
  if (!mask.vertex(v)) return 0;
  uint32_t d = 0;
  if (!mask.edge_alive.empty()) {
    for (EdgeId e : g.edge_ids(v)) d += mask.edge_alive[e] != 0;
  } else if (!mask.vertex_alive.empty()) {
    for (VertexId w : g.neighbors(v)) d += mask.vertex_alive[w] != 0;
  } else {
    d = g.degree(v);
  }
  return d;
}

/// Calls `fn(w, e)` for every neighbor w of v whose edge e is alive in
/// `edge_alive` (every edge when it is empty), in neighbor-id order. It
/// checks no vertex flags: masked loops that call it rule out dead
/// vertices another way, and say how.
template <typename Fn>
void ForEachNeighbor(const AttributedGraph& g,
                     std::span<const uint8_t> edge_alive, VertexId v,
                     Fn&& fn) {
  const std::span<const VertexId> nbrs = g.neighbors(v);
  const std::span<const EdgeId> ids = g.edge_ids(v);
  if (edge_alive.empty()) {
    for (size_t i = 0; i < nbrs.size(); ++i) fn(nbrs[i], ids[i]);
    return;
  }
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (edge_alive[ids[i]]) fn(nbrs[i], ids[i]);
  }
}

/// Accumulates edges and attributes, then produces a normalized
/// AttributedGraph: self-loops dropped, duplicate edges collapsed, adjacency
/// sorted, edge ids assigned.
class GraphBuilder {
 public:
  /// Creates a builder for `num_vertices` vertices, all with attribute kA.
  explicit GraphBuilder(VertexId num_vertices);

  VertexId num_vertices() const { return num_vertices_; }

  /// Sets the attribute of vertex `v`.
  void SetAttribute(VertexId v, Attribute attr);

  /// Adds the undirected edge {u, v}. Self-loops and duplicates are tolerated
  /// and normalized away at Build() time. Ids must be < num_vertices.
  void AddEdge(VertexId u, VertexId v);

  /// Number of raw (pre-normalization) edge insertions so far.
  size_t raw_edge_count() const { return raw_edges_.size(); }

  /// Builds the normalized immutable graph. The builder may be reused
  /// afterwards (its state is unchanged).
  AttributedGraph Build() const;

 private:
  VertexId num_vertices_;
  std::vector<Edge> raw_edges_;
  std::vector<uint8_t> attributes_;
};

/// Convenience: builds a graph from an explicit edge list and attribute
/// vector (attributes.size() == num_vertices).
AttributedGraph BuildGraph(VertexId num_vertices,
                           std::span<const Edge> edge_list,
                           std::span<const Attribute> attributes);

}  // namespace fairclique

#endif  // FAIRCLIQUE_GRAPH_GRAPH_H_
