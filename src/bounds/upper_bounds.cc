#include "bounds/upper_bounds.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/cores.h"
#include "reduction/colorful_core.h"

namespace fairclique {

namespace {

// min(total, 2*min + delta): the universal shape of attribute-capped bounds.
// `lo`/`hi` are the per-attribute capacities available to a fair clique.
int64_t FairCap(int64_t lo, int64_t hi, int delta) {
  if (lo > hi) std::swap(lo, hi);
  return std::min(lo + hi, 2 * lo + delta);
}

// Per-vertex colorful-degree cap: a fair clique containing v has
// cnt(a) <= Da(v)+1 and cnt(b) <= Db(v)+1 (v's own membership contributes
// the +1; its in-clique neighbors of each attribute all carry distinct
// colors).
int64_t PerVertexColorfulCap(const AttrCounts& d, int delta) {
  return FairCap(d.a() + 1, d.b() + 1, delta);
}

}  // namespace

std::string ExtraBoundName(ExtraBound extra) {
  switch (extra) {
    case ExtraBound::kNone: return "ubAD";
    case ExtraBound::kDegeneracy: return "ubAD+ubD";
    case ExtraBound::kHIndex: return "ubAD+ubh";
    case ExtraBound::kColorfulDegeneracy: return "ubAD+ubcd";
    case ExtraBound::kColorfulHIndex: return "ubAD+ubch";
    case ExtraBound::kColorfulPath: return "ubAD+ubcp";
  }
  return "?";
}

int64_t SizeBound(const AttributedGraph& sub) { return sub.num_vertices(); }

int64_t AttributeBound(const AttributedGraph& sub, int delta) {
  AttrCounts cnt = sub.attribute_counts();
  return FairCap(cnt.a(), cnt.b(), delta);
}

int64_t ColorBound(const Coloring& coloring) { return coloring.num_colors; }

int64_t AttributeColorBound(const AttributedGraph& sub,
                            const Coloring& coloring, int delta) {
  // Distinct colors used by each attribute class.
  std::vector<uint8_t> seen[2];
  seen[0].assign(coloring.num_colors, 0);
  seen[1].assign(coloring.num_colors, 0);
  AttrCounts col;
  for (VertexId v = 0; v < sub.num_vertices(); ++v) {
    int ai = AttrIndex(sub.attribute(v));
    ColorId c = coloring.color[v];
    if (!seen[ai][c]) {
      seen[ai][c] = 1;
      col.counts[ai]++;
    }
  }
  return FairCap(col.a(), col.b(), delta);
}

int64_t EnhancedAttributeColorBound(const AttributedGraph& sub,
                                    const Coloring& coloring, int delta) {
  // Classify each color: used by a only / b only / both.
  std::vector<uint8_t> seen[2];
  seen[0].assign(coloring.num_colors, 0);
  seen[1].assign(coloring.num_colors, 0);
  for (VertexId v = 0; v < sub.num_vertices(); ++v) {
    seen[AttrIndex(sub.attribute(v))][coloring.color[v]] = 1;
  }
  int64_t ca = 0, cb = 0, cm = 0;
  for (int c = 0; c < coloring.num_colors; ++c) {
    if (seen[0][c] && seen[1][c]) {
      ++cm;
    } else if (seen[0][c]) {
      ++ca;
    } else if (seen[1][c]) {
      ++cb;
    }
  }
  // A fair clique uses <= ca + x colors on attribute a and <= cb + (cm - x)
  // on b for some split x of the mixed colors; maximize the balanced min.
  int64_t bal = BalancedAssignMin(ca, cb, cm);
  return std::min(ca + cb + cm, 2 * bal + delta);
}

int64_t DegeneracyBound(const AttributedGraph& sub) {
  return static_cast<int64_t>(ComputeCores(sub).degeneracy) + 1;
}

int64_t HIndexBound(const AttributedGraph& sub) {
  return static_cast<int64_t>(GraphHIndex(sub)) + 1;
}

int64_t ColorfulDegeneracyBound(const AttributedGraph& sub,
                                const Coloring& coloring, int delta) {
  ColorfulCoreDecomposition dec = ComputeColorfulCores(sub, coloring);
  int64_t by_degeneracy =
      2 * (static_cast<int64_t>(dec.colorful_degeneracy) + 1) + delta;
  std::vector<AttrCounts> d = ColorfulDegrees(sub, coloring);
  int64_t by_vertex = 0;
  for (VertexId v = 0; v < sub.num_vertices(); ++v) {
    by_vertex = std::max(by_vertex, PerVertexColorfulCap(d[v], delta));
  }
  return std::min(by_degeneracy, by_vertex);
}

int64_t ColorfulHIndexBound(const AttributedGraph& sub,
                            const Coloring& coloring, int delta) {
  std::vector<AttrCounts> d = ColorfulDegrees(sub, coloring);
  std::vector<int64_t> dmin(sub.num_vertices());
  int64_t by_vertex = 0;
  for (VertexId v = 0; v < sub.num_vertices(); ++v) {
    dmin[v] = d[v].Min();
    by_vertex = std::max(by_vertex, PerVertexColorfulCap(d[v], delta));
  }
  int64_t h = HIndexOfValues(dmin);
  return std::min(2 * (h + 1) + delta, by_vertex);
}

int64_t ColorfulPathBound(const AttributedGraph& sub,
                          const Coloring& coloring) {
  const VertexId n = sub.num_vertices();
  if (n == 0) return 0;
  // Total order: (color, id) ascending. Counting sort by color.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint32_t> bucket(coloring.num_colors + 1, 0);
  for (VertexId v = 0; v < n; ++v) bucket[coloring.color[v] + 1]++;
  for (size_t c = 1; c < bucket.size(); ++c) bucket[c] += bucket[c - 1];
  std::vector<VertexId> sorted(n);
  for (VertexId v = 0; v < n; ++v) sorted[bucket[coloring.color[v]]++] = v;
  std::vector<uint32_t> rank(n);
  for (uint32_t i = 0; i < n; ++i) rank[sorted[i]] = i;

  // f(u): longest path in the (color, id)-oriented DAG ending at u. Visiting
  // vertices in rank order is a topological order; every edge goes from the
  // lower-ranked endpoint to the higher-ranked one. Colors strictly increase
  // along paths (equal-color vertices are never adjacent in a proper
  // coloring), so every path is a colorful path (Definition 11).
  std::vector<int64_t> f(n, 1);
  int64_t best = 1;
  for (uint32_t i = 0; i < n; ++i) {
    VertexId u = sorted[i];
    for (VertexId w : sub.neighbors(u)) {
      if (rank[w] < i) {
        f[u] = std::max(f[u], f[w] + 1);
      }
    }
    best = std::max(best, f[u]);
  }
  return best;
}

int64_t AdvancedBound(const AttributedGraph& sub, const Coloring& coloring,
                      int delta) {
  int64_t ub = SizeBound(sub);
  ub = std::min(ub, AttributeBound(sub, delta));
  ub = std::min(ub, ColorBound(coloring));
  ub = std::min(ub, AttributeColorBound(sub, coloring, delta));
  ub = std::min(ub, EnhancedAttributeColorBound(sub, coloring, delta));
  return ub;
}

int64_t ComputeUpperBound(const AttributedGraph& sub, int delta,
                          const UpperBoundConfig& config) {
  return ComputeUpperBound(sub, GreedyColoring(sub), delta, config);
}

int64_t ComputeUpperBound(const AttributedGraph& sub, const Coloring& coloring,
                          int delta, const UpperBoundConfig& config) {
  if (sub.num_vertices() == 0) return 0;
  int64_t ub = SizeBound(sub);
  if (config.use_advanced) {
    ub = std::min(ub, AdvancedBound(sub, coloring, delta));
  }
  switch (config.extra) {
    case ExtraBound::kNone:
      break;
    case ExtraBound::kDegeneracy:
      ub = std::min(ub, DegeneracyBound(sub));
      break;
    case ExtraBound::kHIndex:
      ub = std::min(ub, HIndexBound(sub));
      break;
    case ExtraBound::kColorfulDegeneracy:
      ub = std::min(ub, ColorfulDegeneracyBound(sub, coloring, delta));
      break;
    case ExtraBound::kColorfulHIndex:
      ub = std::min(ub, ColorfulHIndexBound(sub, coloring, delta));
      break;
    case ExtraBound::kColorfulPath:
      ub = std::min(ub, ColorfulPathBound(sub, coloring));
      break;
  }
  return ub;
}

}  // namespace fairclique
