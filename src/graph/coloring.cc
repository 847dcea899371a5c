#include "graph/coloring.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "graph/cores.h"

namespace fairclique {

namespace {

// The vertices `mask` keeps, by their degree within it, descending, ties by
// id: a counting sort. With an empty mask this is Welsh-Powell's order.
std::vector<VertexId> ByDegreeDescending(const AttributedGraph& g,
                                         const GraphMask& mask) {
  const VertexId n = g.num_vertices();
  const uint32_t dmax = g.max_degree();
  std::vector<uint32_t> degree(n);
  // start[dmax - d] becomes the first position of degree d.
  std::vector<VertexId> start(static_cast<size_t>(dmax) + 2, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!mask.vertex(v)) continue;
    degree[v] = AliveDegree(g, mask, v);
    ++start[dmax - degree[v] + 1];
  }
  for (size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  std::vector<VertexId> verts(start.back());
  for (VertexId v = 0; v < n; ++v) {
    if (mask.vertex(v)) verts[start[dmax - degree[v]]++] = v;
  }
  return verts;
}

std::vector<VertexId> OrderVertices(const AttributedGraph& g,
                                    ColoringOrder order) {
  switch (order) {
    case ColoringOrder::kNatural:
      break;
    case ColoringOrder::kDegreeDescending:
      return ByDegreeDescending(g, GraphMask{});
    case ColoringOrder::kDegeneracy: {
      // Smallest-last: color in reverse peeling order, which bounds the
      // number of colors by degeneracy + 1.
      CoreDecomposition cores = ComputeCores(g);
      return {cores.peel_order.rbegin(), cores.peel_order.rend()};
    }
  }
  std::vector<VertexId> verts(g.num_vertices());
  std::iota(verts.begin(), verts.end(), 0);
  return verts;
}

// Colors `verts` in order, each with the smallest color absent from its
// neighbors across edges alive in `edge_alive` (all when empty). Vertices
// not in `verts` keep color -1, so a loop over them skips them like any
// neighbor not colored yet: the vertex flags of a mask need no check.
Coloring ColorInOrder(const AttributedGraph& g,
                      std::span<const uint8_t> edge_alive,
                      const std::vector<VertexId>& verts) {
  Coloring result;
  result.color.assign(g.num_vertices(), -1);
  // `used[c + 1] == v` marks color c as used by a neighbor of the vertex v
  // being colored; avoids clearing a bitmap between vertices. used[0]
  // absorbs the uncolored neighbors, so the loop does not branch on them.
  std::vector<VertexId> used(static_cast<size_t>(g.max_degree()) + 3,
                             kInvalidVertex);
  int num_colors = 0;
  // fclint: hot-path-begin(masked_coloring)
  for (VertexId v : verts) {
    ForEachNeighbor(g, edge_alive, v, [&](VertexId w, EdgeId) {
      used[static_cast<size_t>(result.color[w] + 1)] = v;
    });
    ColorId c = 0;
    while (used[static_cast<size_t>(c + 1)] == v) ++c;
    result.color[v] = c;
    num_colors = std::max(num_colors, c + 1);
  }
  // fclint: hot-path-end
  result.num_colors = num_colors;
  return result;
}

}  // namespace

Coloring GreedyColoring(const AttributedGraph& g, ColoringOrder order) {
  return ColorInOrder(g, {}, OrderVertices(g, order));
}

Coloring GreedyColoring(const AttributedGraph& g, const GraphMask& mask) {
  return ColorInOrder(g, mask.edge_alive, ByDegreeDescending(g, mask));
}

bool IsProperColoring(const AttributedGraph& g, const Coloring& coloring) {
  if (coloring.color.size() != g.num_vertices()) return false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ColorId c = coloring.color[v];
    if (c < 0 || c >= coloring.num_colors) return false;
    for (VertexId w : g.neighbors(v)) {
      if (coloring.color[w] == c) return false;
    }
  }
  return true;
}

std::vector<AttrCounts> ColorfulDegrees(const AttributedGraph& g,
                                        const Coloring& coloring) {
  const VertexId n = g.num_vertices();
  std::vector<AttrCounts> result(n);
  // seen[attr][color] == v marks (attr, color) as counted for vertex v.
  std::vector<VertexId> seen[2];
  seen[0].assign(static_cast<size_t>(coloring.num_colors), kInvalidVertex);
  seen[1].assign(static_cast<size_t>(coloring.num_colors), kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : g.neighbors(v)) {
      int ai = AttrIndex(g.attribute(w));
      size_t c = static_cast<size_t>(coloring.color[w]);
      if (seen[ai][c] != v) {
        seen[ai][c] = v;
        result[v].counts[ai]++;
      }
    }
  }
  return result;
}

std::vector<int64_t> EnhancedColorfulDegrees(const AttributedGraph& g,
                                             const Coloring& coloring) {
  const VertexId n = g.num_vertices();
  std::vector<int64_t> result(n, 0);
  // For each vertex, classify each neighbor color as a-only / b-only / mixed.
  std::vector<VertexId> seen[2];
  seen[0].assign(static_cast<size_t>(coloring.num_colors), kInvalidVertex);
  seen[1].assign(static_cast<size_t>(coloring.num_colors), kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    int64_t ca = 0, cb = 0, cm = 0;
    for (VertexId w : g.neighbors(v)) {
      int ai = AttrIndex(g.attribute(w));
      int oi = 1 - ai;
      size_t c = static_cast<size_t>(coloring.color[w]);
      if (seen[ai][c] == v) continue;  // (attr, color) already seen.
      seen[ai][c] = v;
      bool other_present = seen[oi][c] == v;
      if (other_present) {
        // Color moves from the other-only class to mixed.
        if (oi == 0) {
          --ca;
        } else {
          --cb;
        }
        ++cm;
      } else {
        if (ai == 0) {
          ++ca;
        } else {
          ++cb;
        }
      }
    }
    result[v] = BalancedAssignMin(ca, cb, cm);
  }
  return result;
}

}  // namespace fairclique
