#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/logging.h"

namespace fairclique {

bool AttributedGraph::HasEdge(VertexId u, VertexId v) const {
  return FindEdge(u, v) != kInvalidEdge;
}

EdgeId AttributedGraph::FindEdge(VertexId u, VertexId v) const {
  if (u == v) return kInvalidEdge;
  // Search the shorter adjacency row.
  if (degree(u) > degree(v)) std::swap(u, v);
  auto nbrs = neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  return edge_ids(u)[static_cast<size_t>(it - nbrs.begin())];
}

AttributedGraph AttributedGraph::InducedSubgraph(
    std::span<const VertexId> vertices,
    std::vector<VertexId>* original_ids) const {
  std::vector<VertexId> local(num_vertices(), kInvalidVertex);
  for (size_t i = 0; i < vertices.size(); ++i) {
    FC_CHECK(local[vertices[i]] == kInvalidVertex)
        << "duplicate vertex " << vertices[i] << " in InducedSubgraph";
    local[vertices[i]] = static_cast<VertexId>(i);
  }
  GraphBuilder builder(static_cast<VertexId>(vertices.size()));
  for (size_t i = 0; i < vertices.size(); ++i) {
    builder.SetAttribute(static_cast<VertexId>(i), attribute(vertices[i]));
  }
  for (size_t i = 0; i < vertices.size(); ++i) {
    VertexId u = vertices[i];
    for (VertexId w : neighbors(u)) {
      // Emit each edge once, from the endpoint with the larger original id.
      if (w < u && local[w] != kInvalidVertex) {
        builder.AddEdge(static_cast<VertexId>(i), local[w]);
      }
    }
  }
  if (original_ids != nullptr) {
    original_ids->assign(vertices.begin(), vertices.end());
  }
  return builder.Build();
}

AttributedGraph AttributedGraph::FilteredSubgraph(
    std::span<const uint8_t> vertex_alive, std::span<const uint8_t> edge_alive,
    std::vector<VertexId>* original_ids) const {
  FC_CHECK(vertex_alive.size() == num_vertices());
  FC_CHECK(edge_alive.empty() || edge_alive.size() == num_edges());
  std::vector<VertexId> kept;
  kept.reserve(num_vertices());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (vertex_alive[v]) kept.push_back(v);
  }
  std::vector<VertexId> local(num_vertices(), kInvalidVertex);
  for (size_t i = 0; i < kept.size(); ++i) {
    local[kept[i]] = static_cast<VertexId>(i);
  }
  GraphBuilder builder(static_cast<VertexId>(kept.size()));
  for (size_t i = 0; i < kept.size(); ++i) {
    builder.SetAttribute(static_cast<VertexId>(i), attribute(kept[i]));
  }
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (!edge_alive.empty() && !edge_alive[e]) continue;
    const Edge& edge = edges_[e];
    if (vertex_alive[edge.u] && vertex_alive[edge.v]) {
      builder.AddEdge(local[edge.u], local[edge.v]);
    }
  }
  if (original_ids != nullptr) *original_ids = std::move(kept);
  return builder.Build();
}

std::vector<std::vector<VertexId>> AttributedGraph::ConnectedComponents()
    const {
  std::vector<std::vector<VertexId>> components;
  std::vector<uint8_t> visited(num_vertices(), 0);
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < num_vertices(); ++s) {
    if (visited[s]) continue;
    std::vector<VertexId> component;
    stack.push_back(s);
    visited[s] = 1;
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      component.push_back(v);
      for (VertexId w : neighbors(v)) {
        if (!visited[w]) {
          visited[w] = 1;
          stack.push_back(w);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

Status AttributedGraph::Validate() const {
  if (offsets_.empty()) {
    return Status::Corruption("graph has no offset array");
  }
  if (attributes_.size() != num_vertices()) {
    return Status::Corruption("attribute array size mismatch");
  }
  if (adjacency_.size() != 2 * static_cast<size_t>(num_edges())) {
    return Status::Corruption("adjacency size != 2 * num_edges");
  }
  for (VertexId v = 0; v < num_vertices(); ++v) {
    auto nbrs = neighbors(v);
    auto eids = edge_ids(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == v) {
        return Status::Corruption("self-loop at vertex " + std::to_string(v));
      }
      if (i > 0 && nbrs[i] <= nbrs[i - 1]) {
        return Status::Corruption("adjacency of vertex " + std::to_string(v) +
                                  " not strictly sorted");
      }
      const Edge& e = edges_[eids[i]];
      VertexId lo = std::min(v, nbrs[i]);
      VertexId hi = std::max(v, nbrs[i]);
      if (e.u != lo || e.v != hi) {
        return Status::Corruption("edge id wiring broken at vertex " +
                                  std::to_string(v));
      }
    }
  }
  for (EdgeId e = 0; e + 1 < num_edges(); ++e) {
    if (!(edges_[e] < edges_[e + 1])) {
      return Status::Corruption("edge list not strictly sorted");
    }
  }
  return Status::OK();
}

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : num_vertices_(num_vertices), attributes_(num_vertices, 0) {}

void GraphBuilder::SetAttribute(VertexId v, Attribute attr) {
  FC_CHECK(v < num_vertices_) << "SetAttribute: vertex out of range";
  attributes_[v] = static_cast<uint8_t>(attr);
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  FC_CHECK(u < num_vertices_ && v < num_vertices_)
      << "AddEdge: endpoint out of range (" << u << ", " << v << ")";
  if (u == v) return;  // Self-loops are silently dropped.
  if (u > v) std::swap(u, v);
  raw_edges_.push_back({u, v});
}

AttributedGraph GraphBuilder::Build() const {
  auto store = std::make_shared<AttributedGraph::OwnedCsr>();
  store->edges = raw_edges_;
  // FilteredSubgraph emits its edges already in order.
  if (!std::is_sorted(store->edges.begin(), store->edges.end())) {
    std::sort(store->edges.begin(), store->edges.end());
  }
  store->edges.erase(std::unique(store->edges.begin(), store->edges.end()),
                     store->edges.end());
  store->attributes = attributes_;

  AttributedGraph g;
  g.attr_counts_ = AttrCounts{};
  for (uint8_t a : store->attributes) {
    g.attr_counts_[static_cast<Attribute>(a)]++;
  }

  const size_t n = num_vertices_;
  std::vector<uint32_t> deg(n, 0);
  for (const Edge& e : store->edges) {
    deg[e.u]++;
    deg[e.v]++;
  }
  store->offsets.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    store->offsets[v + 1] = store->offsets[v] + deg[v];
    g.max_degree_ = std::max(g.max_degree_, deg[v]);
  }
  store->adjacency.resize(2 * store->edges.size());
  store->adjacency_edge_ids.resize(2 * store->edges.size());

  std::vector<uint64_t> cursor(store->offsets.begin(),
                               store->offsets.end() - 1);
  // Edges are sorted by (u, v) with u < v, so vertex x's row receives its
  // smaller neighbors first (from the edges (u, x), in increasing u), then
  // its larger ones (from the edges (x, v), in increasing v): every row is
  // filled in sorted order.
  for (EdgeId e = 0; e < store->edges.size(); ++e) {
    const Edge& edge = store->edges[e];
    store->adjacency[cursor[edge.u]] = edge.v;
    store->adjacency_edge_ids[cursor[edge.u]] = e;
    cursor[edge.u]++;
    store->adjacency[cursor[edge.v]] = edge.u;
    store->adjacency_edge_ids[cursor[edge.v]] = e;
    cursor[edge.v]++;
  }
  g.offsets_ = store->offsets;
  g.adjacency_ = store->adjacency;
  g.adjacency_edge_ids_ = store->adjacency_edge_ids;
  g.edges_ = store->edges;
  g.attributes_ = store->attributes;
  g.keeper_ = std::move(store);
  return g;
}

AttributedGraph AttributedGraph::FromCsr(
    std::span<const uint64_t> offsets, std::span<const VertexId> adjacency,
    std::span<const EdgeId> adjacency_edge_ids, std::span<const Edge> edges,
    std::span<const uint8_t> attributes, uint32_t max_degree,
    std::shared_ptr<const void> keeper) {
  FC_CHECK(!offsets.empty()) << "FromCsr: offsets must have size V+1 >= 1";
  FC_CHECK(offsets.size() == attributes.size() + 1)
      << "FromCsr: offsets/attributes size mismatch";
  FC_CHECK(adjacency.size() == 2 * edges.size())
      << "FromCsr: adjacency size != 2 * num_edges";
  FC_CHECK(adjacency_edge_ids.size() == adjacency.size())
      << "FromCsr: edge-id array not parallel to adjacency";
  FC_CHECK(offsets.front() == 0 && offsets.back() == adjacency.size())
      << "FromCsr: offsets do not span the adjacency array";
  AttributedGraph g;
  g.offsets_ = offsets;
  g.adjacency_ = adjacency;
  g.adjacency_edge_ids_ = adjacency_edge_ids;
  g.edges_ = edges;
  g.attributes_ = attributes;
  g.max_degree_ = max_degree;
  g.attr_counts_ = AttrCounts{};
  for (uint8_t a : attributes) g.attr_counts_[static_cast<Attribute>(a)]++;
  g.keeper_ = std::move(keeper);
  return g;
}

AttributedGraph BuildGraph(VertexId num_vertices,
                           std::span<const Edge> edge_list,
                           std::span<const Attribute> attributes) {
  FC_CHECK(attributes.size() == num_vertices);
  GraphBuilder builder(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) {
    builder.SetAttribute(v, attributes[v]);
  }
  for (const Edge& e : edge_list) builder.AddEdge(e.u, e.v);
  return builder.Build();
}

}  // namespace fairclique
