#include "graph/triangles.h"

namespace fairclique {

DegreeOrientation::DegreeOrientation(const AttributedGraph& g) {
  const VertexId n = g.num_vertices();
  auto ranks_below = [&g](VertexId u, VertexId v) {
    const uint32_t du = g.degree(u);
    const uint32_t dv = g.degree(v);
    return du < dv || (du == dv && u < v);
  };
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    uint64_t out = 0;
    for (VertexId v : g.neighbors(u)) out += ranks_below(u, v);
    offsets_[u + 1] = offsets_[u] + out;
  }
  arcs_.resize(g.num_edges());
  for (VertexId u = 0; u < n; ++u) {
    auto nbrs = g.neighbors(u);
    auto ids = g.edge_ids(u);
    uint64_t pos = offsets_[u];
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (ranks_below(u, nbrs[i])) arcs_[pos++] = {nbrs[i], ids[i]};
    }
  }
}

uint64_t CountTriangles(const AttributedGraph& g) {
  uint64_t total = 0;
  ForEachTriangle(g, [&total](EdgeId, EdgeId, EdgeId) { ++total; });
  return total;
}

}  // namespace fairclique
