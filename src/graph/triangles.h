#ifndef FAIRCLIQUE_GRAPH_TRIANGLES_H_
#define FAIRCLIQUE_GRAPH_TRIANGLES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Calls `fn(w, euw, evw)` for every common neighbor w of u and v, where
/// euw/evw are the edge ids of {u,w} and {v,w}. Merge-intersects the two
/// sorted adjacency rows: O(deg(u) + deg(v)).
template <typename Fn>
void ForEachCommonNeighbor(const AttributedGraph& g, VertexId u, VertexId v,
                           Fn&& fn) {
  auto nu = g.neighbors(u);
  auto nv = g.neighbors(v);
  auto eu = g.edge_ids(u);
  auto ev = g.edge_ids(v);
  size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      fn(nu[i], eu[i], ev[j]);
      ++i;
      ++j;
    }
  }
}

/// A triangle {u, v, w} with u < v < w by vertex id, as its three edge ids.
struct Triangle {
  EdgeId uv;
  EdgeId uw;
  EdgeId vw;
};

/// The alive edges of a masked graph directed from lower to higher (degree,
/// id) rank, degrees counting alive edges only, as out-rows of (head vertex,
/// edge id) over the graph's own ids. Every out-degree is at most
/// O(sqrt(E)), and the sum over edges (u,v) of |out(v)| is O(alpha * E)
/// (Chiba-Nishizeki 1985), which bounds the listing below. The triangles
/// listed are those whose three edges are alive.
class DegreeOrientation {
 public:
  /// Builds the out-rows, one vertex range per ParallelFor chunk (inline
  /// below kParallelMinWork edges, as is ListTriangles).
  DegreeOrientation(const AttributedGraph& g, const GraphMask& mask,
                    ParallelHelpers* helpers = nullptr);
  /// The whole graph.
  explicit DegreeOrientation(const AttributedGraph& g,
                             ParallelHelpers* helpers = nullptr)
      : DegreeOrientation(g, GraphMask{}, helpers) {}

  /// Calls `fn(e_uv, e_uw, e_vw)` once per triangle {u, v, w}, labelled so
  /// that u < v < w by vertex id. Mark-array forward listing (Schank-Wagner
  /// 2005): O(alpha * E) time, O(V) scratch.
  template <typename Fn>
  void ForEachTriangle(Fn&& fn) const {
    ForEachTriangle(0, num_vertices(), std::forward<Fn>(fn));
  }

  /// Every triangle once, in ForEachTriangle order, in an exact-size array.
  /// Each chunk of source vertices counts its triangles, then lists them
  /// again at its offset, so the array does not depend on the helpers.
  std::vector<Triangle> ListTriangles(ParallelHelpers* helpers = nullptr) const;

 private:
  struct Arc {
    VertexId head;
    EdgeId edge;
  };

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.size() - 1);
  }

  // The triangles whose lowest-ranked vertex (the listing source) lies in
  // [begin, end), in source order.
  template <typename Fn>
  void ForEachTriangle(VertexId begin, VertexId end, Fn&& fn) const;

  std::vector<uint64_t> offsets_;  // size V+1
  std::vector<Arc> arcs_;          // one per alive edge, rows sorted by head
};

/// One-shot form of DegreeOrientation::ForEachTriangle.
template <typename Fn>
void ForEachTriangle(const AttributedGraph& g, Fn&& fn) {
  DegreeOrientation(g).ForEachTriangle(std::forward<Fn>(fn));
}

/// Total number of triangles in the graph (each counted once).
uint64_t CountTriangles(const AttributedGraph& g);

template <typename Fn>
void DegreeOrientation::ForEachTriangle(VertexId begin, VertexId end,
                                        Fn&& fn) const {
  const VertexId n = num_vertices();
  // mark[w] = id of the edge {u, w} while w is an out-neighbor of the
  // current source u, kInvalidEdge otherwise.
  std::vector<EdgeId> mark(n, kInvalidEdge);
  for (VertexId u = begin; u < end; ++u) {
    const Arc* ubegin = arcs_.data() + offsets_[u];
    const Arc* uend = arcs_.data() + offsets_[u + 1];
    if (uend - ubegin < 2) continue;
    for (const Arc* a = ubegin; a != uend; ++a) mark[a->head] = a->edge;
    for (const Arc* a = ubegin; a != uend; ++a) {
      const VertexId v = a->head;
      for (uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const VertexId w = arcs_[i].head;
        EdgeId e_uw = mark[w];
        if (e_uw == kInvalidEdge) continue;
        // Triangle {u, v, w} with edges uv = a->edge, uw, vw; relabel it
        // into id order.
        EdgeId e_uv = a->edge;
        EdgeId e_vw = arcs_[i].edge;
        VertexId x = u, y = v, z = w;
        if (x > y) {
          std::swap(x, y);
          std::swap(e_uw, e_vw);  // {x,z} and {y,z} swap with x and y.
        }
        if (y > z) {
          std::swap(y, z);
          std::swap(e_uv, e_uw);  // {x,y} and {x,z} swap with y and z.
        }
        if (x > y) {
          std::swap(x, y);
          std::swap(e_uw, e_vw);
        }
        fn(e_uv, e_uw, e_vw);
      }
    }
    for (const Arc* a = ubegin; a != uend; ++a) mark[a->head] = kInvalidEdge;
  }
}

}  // namespace fairclique

#endif  // FAIRCLIQUE_GRAPH_TRIANGLES_H_
