#include "graph/coloring.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.h"

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
  // One bit per (color, attribute) seen among a vertex's neighbors, counted
  // by popcount. Colors below 64 go to two register words, one per
  // attribute. Higher colors go to word 2 * (c / 64) + attribute of
  // `table`, which the vertex zeroes again after counting, touching only
  // the words its neighbors set: each vertex costs O(deg + 1).
  std::vector<uint64_t> table(
      2 * ((static_cast<size_t>(coloring.num_colors) + 63) / 64));
  for (VertexId v = 0; v < n; ++v) {
    uint64_t low_a = 0;
    uint64_t low_b = 0;
    bool high = false;
    for (VertexId w : g.neighbors(v)) {
      const auto c = static_cast<uint32_t>(coloring.color[w]);
      const uint64_t bit = uint64_t{1} << (c & 63);
      const int ai = AttrIndex(g.attribute(w));
      if (c < 64) {
        // Branch-free on the attribute: b_mask is all ones for a b-vertex.
        const uint64_t b_mask = uint64_t{0} - static_cast<uint64_t>(ai);
        low_a |= bit & ~b_mask;
        low_b |= bit & b_mask;
      } else {
        table[2 * (c >> 6) + static_cast<size_t>(ai)] |= bit;
        high = true;
      }
    }
    int64_t counts[2] = {std::popcount(low_a), std::popcount(low_b)};
    if (high) {
      for (VertexId w : g.neighbors(v)) {
        const auto c = static_cast<uint32_t>(coloring.color[w]);
        if (c < 64) continue;
        const int ai = AttrIndex(g.attribute(w));
        uint64_t& word = table[2 * (c >> 6) + static_cast<size_t>(ai)];
        counts[ai] += std::popcount(word);
        word = 0;
      }
    }
    result[v].counts[0] = counts[0];
    result[v].counts[1] = counts[1];
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
