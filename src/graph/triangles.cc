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
                                     const GraphMask& mask,
                                     ParallelHelpers* helpers) {
  helpers = HelpersForWork(helpers, g.num_edges());
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> degree(n);
  ParallelFor(helpers, n, kRowGrain, [&](size_t begin, size_t end) {
    for (VertexId u = begin; u < end; ++u) degree[u] = AliveDegree(g, mask, u);
  });
  // A vertex outside the mask has alive degree 0. It ranks below every
  // vertex with an alive edge, so it never heads an arc from one, and rows
  // of degree 0 are skipped: only a sized edge mask needs checking below.
  auto ranks_below = [&degree](VertexId u, VertexId v) {
    return degree[u] < degree[v] || (degree[u] == degree[v] && u < v);
  };
  // offsets_[u + 1] first holds u's out-degree, then the prefix sum.
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  ParallelFor(helpers, n, kRowGrain, [&](size_t begin, size_t end) {
    for (VertexId u = begin; u < end; ++u) {
      if (degree[u] == 0) continue;
      uint64_t out = 0;
      ForEachNeighbor(g, mask.edge_alive, u, [&](VertexId v, EdgeId) {
        out += ranks_below(u, v);
      });
      offsets_[u + 1] = out;
    }
  });
  for (VertexId u = 0; u < n; ++u) offsets_[u + 1] += offsets_[u];
  arcs_.resize(offsets_[n]);
  ParallelFor(helpers, n, kRowGrain, [&](size_t begin, size_t end) {
    // fclint: hot-path-begin(masked_orientation_rows)
    for (VertexId u = begin; u < end; ++u) {
      if (degree[u] == 0) continue;
      uint64_t pos = offsets_[u];
      ForEachNeighbor(g, mask.edge_alive, u, [&](VertexId v, EdgeId e) {
        if (ranks_below(u, v)) arcs_[pos++] = {v, e};
      });
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
