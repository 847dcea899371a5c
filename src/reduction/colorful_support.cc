#include "reduction/colorful_support.h"

#include <algorithm>

#include "reduction/triangle_index.h"

namespace fairclique {

namespace {

// Shared edge-peeling driver over a TriangleIndex: peels `alive` in place
// to the greatest fixpoint of the policy's survival condition below it.
// `policy.Violates(e)` checks the per-edge survival condition;
// `policy.LoseTriangle(f, e, x)` updates side edge f after it lost the
// triangle it shares with edge e, whose vertex opposite f is x, and returns
// true when f's supports dropped.
//
// Triangle accounting: a triangle is torn down exactly once — when the first
// of its edges to be *popped* from the queue is processed. At that moment the
// other two side edges each lose their third vertex (decrements on already-
// dead-but-unpopped edges are skipped; their state no longer matters). Edges
// are marked removed at push time, matching Algorithm 1 line 10, so the
// violation check never re-queues an edge. Edges already dead in `alive`
// count as processed; the policy's supports must then count only the
// triangles whose three edges are alive. At fixpoint every dead edge has
// been popped, hence every alive edge's support counts exactly the triangles
// whose other two edges are alive — the maximal subgraph of Lemma 3/4.
template <typename Policy>
void PeelEdges(const AttributedGraph& g, const TriangleIndex& index,
               Policy& policy, std::vector<uint8_t>& alive) {
  const EdgeId m = g.num_edges();
  // not_processed[e] == 1 until e has been popped and its triangles torn
  // down. A triangle with a processed side edge has already been handled.
  std::vector<uint8_t> not_processed(alive);

  // FIFO of removed edges; every edge is pushed at most once.
  std::vector<EdgeId> queue;
  queue.reserve(m);
  for (EdgeId e = 0; e < m; ++e) {
    if (alive[e] && policy.Violates(e)) {
      alive[e] = 0;  // Removed immediately (Alg. 1 line 10).
      queue.push_back(e);
    }
  }
  // fclint: hot-path-begin(support_peel)
  for (size_t head = 0; head < queue.size(); ++head) {
    const EdgeId e = queue[head];
    not_processed[e] = 0;
    // Side edge f loses common neighbor x, the endpoint of e opposite it.
    auto lose = [&](EdgeId f, VertexId x) {
      if (!alive[f] || !policy.LoseTriangle(f, e, x)) return;
      if (policy.Violates(f)) {
        alive[f] = 0;
        queue.push_back(f);
      }
    };
    const Edge& edge = g.edges()[e];
    for (uint64_t i = index.begin(e); i < index.end(e); ++i) {
      const TriangleIndex::Slot& s = index.slot(i);
      if (!not_processed[s.first] || !not_processed[s.second]) continue;
      lose(s.first, edge.v);   // {u,w} loses v
      lose(s.second, edge.u);  // {v,w} loses u
    }
  }
  // fclint: hot-path-end
}

}  // namespace

EdgeReductionResult EdgeSurvivors(const AttributedGraph& g,
                                  std::vector<uint8_t> edge_alive) {
  EdgeReductionResult result;
  result.edge_alive = std::move(edge_alive);
  result.vertex_alive.assign(g.num_vertices(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (result.edge_alive[e]) {
      result.edges_left++;
      result.vertex_alive[g.edges()[e].u] = 1;
      result.vertex_alive[g.edges()[e].v] = 1;
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (result.vertex_alive[v]) result.vertices_left++;
  }
  return result;
}

std::vector<AttrCounts> ComputeColorfulSupports(const AttributedGraph& g,
                                                const Coloring& coloring) {
  TriangleIndex index(g, GraphMask{}, nullptr);
  std::vector<AttrCounts> sup(g.num_edges());
  index.SortIntoRuns(coloring, [&sup](EdgeId e, const EdgeRuns& r) {
    sup[e][Attribute::kA] = r.classes.a_only + r.classes.mixed;
    sup[e][Attribute::kB] = r.classes.b_only + r.classes.mixed;
  });
  return sup;
}

void ColorfulSupPeel(const AttributedGraph& g, const Coloring& coloring, int k,
                     TriangleIndex& index, std::vector<uint8_t>& alive) {
  // Lemma 3's test on (sup_a, sup_b) per edge, interleaved. Both phases use
  // the one array: the count phase holds common neighbors per attribute,
  // the color phase distinct colors per attribute.
  struct Thresholds {
    const AttributedGraph& g;
    int k;
    std::vector<int32_t>& sup;

    bool Violates(EdgeId e) const {
      const Edge& edge = g.edges()[e];
      int64_t ta, tb;
      SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
      return sup[2 * e] < ta || sup[2 * e + 1] < tb;
    }
  };
  // Losing a triangle drops the count of its third vertex's attribute.
  struct CountPolicy : Thresholds {
    bool LoseTriangle(EdgeId f, EdgeId, VertexId x) {
      sup[2 * f + static_cast<size_t>(g.attribute(x))]--;
      return true;
    }
  };
  // Losing the last common neighbor of color c and attribute x drops sup_x
  // by one.
  struct ColorPolicy : Thresholds {
    TriangleIndex& index;

    bool LoseTriangle(EdgeId f, EdgeId e, VertexId x) {
      const uint32_t key = index.KeyOf(x);
      if (!index.Kill(f, e, key)) return false;
      sup[2 * f + (key & 1)]--;
      return true;
    }
  };
  std::vector<int32_t> sup(2 * static_cast<size_t>(g.num_edges()));
  index.CountByAttribute(sup);
  CountPolicy count{{g, k, sup}};
  PeelEdges(g, index, count, alive);
  // Every color run of an edge needs a triangle, so a count survivor's
  // colorful supports never exceed its counts: the count survivors contain
  // ColorfulSup's fixpoint, and the color peel from them reaches it.
  index.Compact(alive);
  index.SortIntoRuns(coloring, [&](EdgeId e, const EdgeRuns& r) {
    if (!alive[e]) return;
    // The count peel left each survivor exactly its alive triangles: a
    // triangle torn down twice, or never, shows here.
    FC_CHECK(r.slots[0] == sup[2 * e] && r.slots[1] == sup[2 * e + 1])
        << "count peel support differs from the alive triangles";
    sup[2 * e] = r.classes.a_only + r.classes.mixed;
    sup[2 * e + 1] = r.classes.b_only + r.classes.mixed;
  });
  ColorPolicy color{{g, k, sup}, index};
  PeelEdges(g, index, color, alive);
}

EdgeReductionResult ColorfulSupReduction(const AttributedGraph& g,
                                         const Coloring& coloring, int k,
                                         ParallelHelpers* helpers) {
  TriangleIndex index(g, GraphMask{}, helpers);
  std::vector<uint8_t> alive(g.num_edges(), 1);
  ColorfulSupPeel(g, coloring, k, index, alive);
  return EdgeSurvivors(g, std::move(alive));
}

AttrCounts GreedyEnhancedSupport(int64_t ca, int64_t cb, int64_t cm,
                                 int64_t ta, int64_t tb) {
  // Definition 7: assign mixed colors to attribute a first (up to its
  // deficit), then the remainder to b.
  int64_t gamma_a = ca < ta ? std::min(ta - ca, cm) : 0;
  int64_t rest = cm - gamma_a;
  int64_t gamma_b = cb < tb ? std::min(tb - cb, rest) : 0;
  AttrCounts gsup;
  gsup[Attribute::kA] = ca + gamma_a;
  gsup[Attribute::kB] = cb + gamma_b;
  return gsup;
}

void EnColorfulSupPeel(const AttributedGraph& g, const Coloring& coloring,
                       int k, TriangleIndex& index,
                       std::vector<uint8_t>& alive) {
  struct Policy {
    const AttributedGraph& g;
    int k;
    std::vector<ColorClasses> cls;
    TriangleIndex* index;

    bool Violates(EdgeId e) const {
      const Edge& edge = g.edges()[e];
      int64_t ta, tb;
      SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
      // Feasibility of the mixed-color assignment: both deficits must be
      // coverable by distinct mixed colors.
      int64_t need_a = std::max<int64_t>(0, ta - cls[e].a_only);
      int64_t need_b = std::max<int64_t>(0, tb - cls[e].b_only);
      return need_a + need_b > cls[e].mixed;
    }
    // Color c lost its attribute-x side on f when the last slot of run
    // (c, x) died: a mixed color becomes other-only, an x-only color
    // disappears.
    bool LoseTriangle(EdgeId f, EdgeId e, VertexId x) {
      const uint32_t key = index->KeyOf(x);
      if (!index->Kill(f, e, key)) return false;
      ColorClasses& c = cls[f];
      const bool lost_a = (key & 1) == 0;
      if (index->HasAlive(f, key ^ 1)) {
        c.mixed--;
        (lost_a ? c.b_only : c.a_only)++;
      } else {
        (lost_a ? c.a_only : c.b_only)--;
      }
      return true;
    }
  };
  Policy policy{g, k, std::vector<ColorClasses>(g.num_edges()), &index};
  index.SortIntoRuns(coloring, [&policy](EdgeId e, const EdgeRuns& r) {
    policy.cls[e] = r.classes;
  });
  PeelEdges(g, index, policy, alive);
}

EdgeReductionResult EnColorfulSupReduction(const AttributedGraph& g,
                                           const Coloring& coloring, int k,
                                           ParallelHelpers* helpers) {
  TriangleIndex index(g, GraphMask{}, helpers);
  std::vector<uint8_t> alive(g.num_edges(), 1);
  EnColorfulSupPeel(g, coloring, k, index, alive);
  return EdgeSurvivors(g, std::move(alive));
}

}  // namespace fairclique
