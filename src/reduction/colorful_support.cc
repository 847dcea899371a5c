#include "reduction/colorful_support.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "graph/triangles.h"

namespace fairclique {

namespace {

// Sizes of the color classes of an edge's common neighborhood: colors seen
// only on attribute-a neighbors, only on b neighbors, or on both (Group a /
// Group b / Mixed of Fig. 2(c)). sup_a = a_only + mixed, sup_b = b_only +
// mixed.
struct ColorClasses {
  int32_t a_only = 0;
  int32_t b_only = 0;
  int32_t mixed = 0;
};

// What SortIntoRuns reports for one edge: its color classes and how many of
// its slots have a third vertex of attribute a and of attribute b.
struct EdgeRuns {
  ColorClasses classes;
  int32_t slots[2] = {0, 0};
};

// Per-stage triangle index: every edge e = {u, v} (u < v) owns one slot per
// triangle {u, v, w} on it, holding the side edges ({u,w}, {v,w}). The slots
// start in listing order, which is all a count peel needs; Compact may then
// drop the triangles of dead edges. SortIntoRuns sorts an edge's slots by
// the key (color(w) << 1) | attr(w), so a run of equal keys is exactly the
// paper's M_e(attr, color) entry (Algorithm 1) and its count is the number
// of alive slots in the run. Runs are delimited by a head flag; keys are not
// stored but recomputed from the side edge, which keeps the index at 9 bytes
// per slot.
class TriangleIndex {
 public:
  struct Slot {
    EdgeId first;   // {u, w}
    EdgeId second;  // {v, w}
  };

  // (color(w) << 1) | attr(w): a vertex's M_e key.
  uint32_t KeyOf(VertexId w) const {
    return (static_cast<uint32_t>(coloring_.color[w]) << 1) |
           static_cast<uint32_t>(g_.attribute(w));
  }

  // Lists the triangles of `g` once into an array, frees the orientation,
  // then counts and fills the per-edge slots from the array. The slots are
  // unsorted until SortIntoRuns. The passes after the listing share work
  // when the graph has kParallelMinWork edges or triangles: a dense core
  // can have few edges but many triangles.
  TriangleIndex(const AttributedGraph& g, const Coloring& coloring,
                ParallelHelpers* helpers)
      : g_(g), coloring_(coloring) {
    const EdgeId m = g.num_edges();
    const std::vector<Triangle> triangles =
        DegreeOrientation(g, helpers).ListTriangles(helpers);
    helpers_ =
        HelpersForWork(helpers, std::max<uint64_t>(m, triangles.size()));
    // Edge-range ownership: every chunk scans the whole array and touches
    // only its own edges' counters and slots. No atomics are needed, and
    // each edge's slots keep the listing order whatever the chunking, so
    // the serial form is a single chunk.
    const size_t grain =
        helpers_ == nullptr ? m : (m + kOwnerRanges - 1) / kOwnerRanges;
    auto for_owned = [&triangles](size_t begin, size_t end, auto&& visit) {
      auto owned = [begin, end](EdgeId e) { return e >= begin && e < end; };
      for (const Triangle& t : triangles) {
        if (owned(t.uv)) visit(t.uv, Slot{t.uw, t.vw});
        if (owned(t.uw)) visit(t.uw, Slot{t.uv, t.vw});
        if (owned(t.vw)) visit(t.vw, Slot{t.uv, t.uw});
      }
    };
    offsets_.assign(static_cast<size_t>(m) + 1, 0);
    ParallelFor(helpers_, m, grain, [&](size_t begin, size_t end) {
      for_owned(begin, end, [this](EdgeId e, Slot) { ++offsets_[e + 1]; });
    });
    for (EdgeId e = 0; e < m; ++e) offsets_[e + 1] += offsets_[e];
    // offsets_[e] serves as edge e's write cursor; afterwards it holds the
    // end of e's slots and is shifted back into place.
    slots_.resize(offsets_[m]);
    ParallelFor(helpers_, m, grain, [&](size_t begin, size_t end) {
      for_owned(begin, end,
                [this](EdgeId e, Slot s) { slots_[offsets_[e]++] = s; });
    });
    for (EdgeId e = m; e > 0; --e) offsets_[e] = offsets_[e - 1];
    offsets_[0] = 0;
  }

  // Counts each edge's slots by the attribute of their third vertex into
  // tally[2e + attr], which must be zero on entry. The count pass of
  // ColorfulSupReduction: no keys, no sort.
  void CountByAttribute(std::vector<int32_t>& tally) const {
    ParallelFor(helpers_, g_.num_edges(), kSortGrain,
                [&](size_t begin, size_t end) {
                  for (EdgeId e = begin; e < end; ++e) {
                    const VertexId u = g_.edges()[e].u;
                    for (uint64_t i = offsets_[e]; i < offsets_[e + 1]; ++i) {
                      tally[2 * e +
                            static_cast<size_t>(g_.attribute(ThirdAt(u, i)))]++;
                    }
                  }
                });
  }

  // Keeps only the slots of triangles whose three edges are all alive,
  // moved down in edge order, so a dead edge keeps no slots. The slot array
  // is resized, not reallocated; call before SortIntoRuns, which sizes the
  // flags to the survivors.
  void Compact(const std::vector<uint8_t>& alive) {
    const EdgeId m = g_.num_edges();
    uint64_t out = 0;
    for (EdgeId e = 0; e < m; ++e) {
      // offsets_[e + 1] is still e's old end: it is rewritten only when
      // edge e + 1 is reached.
      const uint64_t begin = offsets_[e];
      const uint64_t end = offsets_[e + 1];
      offsets_[e] = out;
      if (!alive[e]) continue;
      for (uint64_t i = begin; i < end; ++i) {
        if (alive[slots_[i].first] && alive[slots_[i].second]) {
          slots_[out++] = slots_[i];
        }
      }
    }
    offsets_[m] = out;
    slots_.resize(out);
  }

  // Sorts each edge's slots into runs and reports every edge's initial
  // color classes and per-attribute slot counts through `on_edge(e, runs)`,
  // which may run on several threads at once and must write only edge e's
  // state. Callers allocate their per-edge state after the constructor,
  // once the orientation and the triangle array are freed, so they never
  // coexist.
  template <typename EdgeFn>
  void SortIntoRuns(EdgeFn&& on_edge) {
    flags_.resize(slots_.size());
    ParallelFor(helpers_, g_.num_edges(), kSortGrain,
                [&](size_t begin, size_t end) {
                  std::vector<Keyed> scratch;
                  for (EdgeId e = begin; e < end; ++e) {
                    on_edge(e, SortEdge(e, scratch));
                  }
                });
  }

  uint64_t begin(EdgeId e) const { return offsets_[e]; }
  uint64_t end(EdgeId e) const { return offsets_[e + 1]; }
  const Slot& slot(uint64_t i) const { return slots_[i]; }

  // Edge f loses the triangle it shares with edge e; `key` is the key of the
  // triangle's vertex opposite f. Clears that slot and returns true when it
  // was the last alive slot of its run, i.e. M_f(key) dropped to zero.
  bool Kill(EdgeId f, EdgeId e, uint32_t key) {
    const uint64_t run = FindRun(f, key);
    const uint64_t end_f = end(f);
    uint64_t hit = end_f;
    bool others_alive = false;
    for (uint64_t i = run; i < end_f && (i == run || !(flags_[i] & kRunHead));
         ++i) {
      if (slots_[i].first == e || slots_[i].second == e) {
        hit = i;
      } else if (flags_[i] & kAlive) {
        others_alive = true;
      }
    }
    FC_CHECK(hit != end_f) << "edge color key missing";
    FC_CHECK(flags_[hit] & kAlive) << "double decrement on edge color count";
    flags_[hit] &= static_cast<uint8_t>(~kAlive);
    return !others_alive;
  }

  // True while M_f(key) > 0.
  bool HasAlive(EdgeId f, uint32_t key) const {
    const uint64_t run = FindRun(f, key);
    const uint64_t end_f = end(f);
    if (run == end_f || KeyAt(g_.edges()[f].u, run) != key) return false;
    for (uint64_t i = run; i < end_f && (i == run || !(flags_[i] & kRunHead));
         ++i) {
      if (flags_[i] & kAlive) return true;
    }
    return false;
  }

 private:
  static constexpr uint8_t kAlive = 1;
  static constexpr uint8_t kRunHead = 2;
  // Edge ranges of the slot count and fill passes when helpers are present.
  static constexpr size_t kOwnerRanges = 3;
  // Edges per ParallelFor chunk of SortIntoRuns.
  static constexpr size_t kSortGrain = 8192;

  struct Keyed {
    uint64_t order;  // (key << 32) | first: a total order within an edge
    EdgeId second;
  };

  // Sorts edge e's slots into runs, sets their flags and returns e's color
  // classes and slot counts. `scratch` is reused across the edges of one
  // chunk.
  EdgeRuns SortEdge(EdgeId e, std::vector<Keyed>& scratch) {
    const uint64_t begin = offsets_[e];
    const uint64_t end = offsets_[e + 1];
    const VertexId u = g_.edges()[e].u;
    scratch.clear();
    for (uint64_t i = begin; i < end; ++i) {
      scratch.push_back(
          {(static_cast<uint64_t>(KeyAt(u, i)) << 32) | slots_[i].first,
           slots_[i].second});
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const Keyed& x, const Keyed& y) { return x.order < y.order; });
    auto key_of = [&scratch](size_t j) {
      return static_cast<uint32_t>(scratch[j].order >> 32);
    };
    EdgeRuns runs;
    ColorClasses& classes = runs.classes;
    for (size_t j = 0; j < scratch.size(); ++j) {
      const uint32_t key = key_of(j);
      slots_[begin + j] = {static_cast<EdgeId>(scratch[j].order),
                           scratch[j].second};
      runs.slots[key & 1]++;
      const bool head = j == 0 || key_of(j - 1) != key;
      flags_[begin + j] = kAlive | (head ? kRunHead : 0);
      if (!head) continue;
      // (c, b) directly follows (c, a) when color c is mixed.
      if ((key & 1) == 0) {
        classes.a_only++;
      } else if (j > 0 && key_of(j - 1) == (key ^ 1)) {
        classes.a_only--;
        classes.mixed++;
      } else {
        classes.b_only++;
      }
    }
    return runs;
  }

  // Third vertex of slot i of an edge whose smaller endpoint is u: the far
  // end of the side edge {u, w}.
  VertexId ThirdAt(VertexId u, uint64_t i) const {
    const Edge& side = g_.edges()[slots_[i].first];
    return side.u ^ side.v ^ u;
  }

  // Key of slot i of an edge whose smaller endpoint is u.
  uint32_t KeyAt(VertexId u, uint64_t i) const { return KeyOf(ThirdAt(u, i)); }

  // First slot of edge f whose key is >= `key`.
  uint64_t FindRun(EdgeId f, uint32_t key) const {
    const VertexId u = g_.edges()[f].u;
    uint64_t lo = begin(f);
    uint64_t hi = end(f);
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (KeyAt(u, mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  const AttributedGraph& g_;
  const Coloring& coloring_;
  ParallelHelpers* helpers_;  // null when the index is too small to share
  std::vector<uint64_t> offsets_;  // size E+1
  std::vector<Slot> slots_;        // 3 per triangle
  std::vector<uint8_t> flags_;     // kAlive | kRunHead, parallel to slots_
};

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

// Vertex flags and counts of a peel's surviving edges.
EdgeReductionResult Survivors(const AttributedGraph& g,
                              std::vector<uint8_t> alive) {
  EdgeReductionResult result;
  result.edge_alive = std::move(alive);
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

}  // namespace

std::vector<AttrCounts> ComputeColorfulSupports(const AttributedGraph& g,
                                                const Coloring& coloring) {
  TriangleIndex index(g, coloring, nullptr);
  std::vector<AttrCounts> sup(g.num_edges());
  index.SortIntoRuns([&sup](EdgeId e, const EdgeRuns& r) {
    sup[e][Attribute::kA] = r.classes.a_only + r.classes.mixed;
    sup[e][Attribute::kB] = r.classes.b_only + r.classes.mixed;
  });
  return sup;
}

EdgeReductionResult ColorfulSupReduction(const AttributedGraph& g,
                                         const Coloring& coloring, int k,
                                         ParallelHelpers* helpers) {
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
  TriangleIndex index(g, coloring, helpers);
  std::vector<int32_t> sup(2 * static_cast<size_t>(g.num_edges()));
  std::vector<uint8_t> alive(g.num_edges(), 1);
  index.CountByAttribute(sup);
  CountPolicy count{{g, k, sup}};
  PeelEdges(g, index, count, alive);
  // Every color run of an edge needs a triangle, so a count survivor's
  // colorful supports never exceed its counts: the count survivors contain
  // ColorfulSup's fixpoint, and the color peel from them reaches it.
  index.Compact(alive);
  index.SortIntoRuns([&](EdgeId e, const EdgeRuns& r) {
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
  return Survivors(g, std::move(alive));
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

EdgeReductionResult EnColorfulSupReduction(const AttributedGraph& g,
                                           const Coloring& coloring, int k,
                                           ParallelHelpers* helpers) {
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
  TriangleIndex index(g, coloring, helpers);
  Policy policy{g, k, std::vector<ColorClasses>(g.num_edges()), &index};
  index.SortIntoRuns([&policy](EdgeId e, const EdgeRuns& r) {
    policy.cls[e] = r.classes;
  });
  std::vector<uint8_t> alive(g.num_edges(), 1);
  PeelEdges(g, index, policy, alive);
  return Survivors(g, std::move(alive));
}

}  // namespace fairclique
