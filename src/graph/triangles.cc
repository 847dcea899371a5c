#include "graph/triangles.h"

#include <algorithm>

namespace fairclique {

namespace {

// Vertices per ParallelFor chunk of the orientation's row build.
constexpr size_t kRowGrain = 4096;

// Source vertices per listing chunk: at least 1024, and at most about 32
// chunks, since each chunk clears its own O(V) mark array.
size_t ListingGrain(VertexId n) {
  return std::max<size_t>(1024, (static_cast<size_t>(n) + 31) / 32);
}

}  // namespace

DegreeOrientation::DegreeOrientation(const AttributedGraph& g,
                                     ParallelHelpers* helpers) {
  helpers = HelpersForWork(helpers, g.num_edges());
  const VertexId n = g.num_vertices();
  auto ranks_below = [&g](VertexId u, VertexId v) {
    return g.degree(u) < g.degree(v) || (g.degree(u) == g.degree(v) && u < v);
  };
  // offsets_[u + 1] first holds u's out-degree, then the prefix sum.
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  ParallelFor(helpers, n, kRowGrain, [&](size_t begin, size_t end) {
    for (VertexId u = begin; u < end; ++u) {
      uint64_t out = 0;
      for (VertexId v : g.neighbors(u)) out += ranks_below(u, v);
      offsets_[u + 1] = out;
    }
  });
  for (VertexId u = 0; u < n; ++u) offsets_[u + 1] += offsets_[u];
  arcs_.resize(offsets_[n]);
  ParallelFor(helpers, n, kRowGrain, [&](size_t begin, size_t end) {
    // fclint: hot-path-begin(masked_orientation_rows)
    for (VertexId u = begin; u < end; ++u) {
      const std::span<const VertexId> nbrs = g.neighbors(u);
      const std::span<const EdgeId> ids = g.edge_ids(u);
      uint64_t pos = offsets_[u];
      for (size_t i = 0; i < nbrs.size(); ++i) {
        if (ranks_below(u, nbrs[i])) arcs_[pos++] = {nbrs[i], ids[i]};
      }
    }
    // fclint: hot-path-end
  });
}

std::vector<Triangle> DegreeOrientation::ListTriangles(
    ParallelHelpers* helpers) const {
  helpers = HelpersForWork(helpers, arcs_.size());
  const VertexId n = num_vertices();
  const size_t grain = ListingGrain(n);
  // chunk_offset[c + 1] first holds chunk c's triangle count.
  std::vector<uint64_t> chunk_offset((n + grain - 1) / grain + 1, 0);
  ParallelFor(helpers, n, grain, [&](size_t begin, size_t end) {
    uint64_t count = 0;
    ForEachTriangle(begin, end, [&count](EdgeId, EdgeId, EdgeId) { ++count; });
    chunk_offset[begin / grain + 1] = count;
  });
  for (size_t c = 1; c < chunk_offset.size(); ++c) {
    chunk_offset[c] += chunk_offset[c - 1];
  }
  std::vector<Triangle> triangles(chunk_offset.back());
  ParallelFor(helpers, n, grain, [&](size_t begin, size_t end) {
    Triangle* out = triangles.data() + chunk_offset[begin / grain];
    ForEachTriangle(begin, end, [&out](EdgeId uv, EdgeId uw, EdgeId vw) {
      *out++ = {uv, uw, vw};
    });
  });
  return triangles;
}

uint64_t CountTriangles(const AttributedGraph& g) {
  uint64_t total = 0;
  ForEachTriangle(g, [&total](EdgeId, EdgeId, EdgeId) { ++total; });
  return total;
}

}  // namespace fairclique
