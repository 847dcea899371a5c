#ifndef FAIRCLIQUE_REDUCTION_TRIANGLE_INDEX_H_
#define FAIRCLIQUE_REDUCTION_TRIANGLE_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "graph/coloring.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

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

// The triangle index both support reductions peel on (colorful_support.h).
// Every alive edge e = {u, v} (u < v) of a masked graph owns one slot per
// triangle {u, v, w} on it whose three edges are alive, holding the side
// edges ({u,w}, {v,w}); all ids are the graph's own. The slots start in
// listing order, which is all a count peel needs; Compact may then drop the
// triangles of dead edges, which is how one stage's index becomes the next
// stage's. SortIntoRuns sorts an edge's slots by the key
// (color(w) << 1) | attr(w) under a given coloring, so a run of equal keys
// is exactly the paper's M_e(attr, color) entry (Algorithm 1) and its count
// is the number of alive slots in the run. Runs are delimited by a head
// flag; keys are not stored but recomputed from the side edge, which keeps
// the index at 9 bytes per slot.
class TriangleIndex {
 public:
  struct Slot {
    EdgeId first;   // {u, w}
    EdgeId second;  // {v, w}
  };

  // Lists the triangles of the alive edges once into an array, frees the
  // orientation, then counts and fills the per-edge slots from the array.
  // The slots are unsorted until SortIntoRuns. The passes after the listing
  // share work when the graph has kParallelMinWork edges or triangles: a
  // dense core can have few edges but many triangles.
  TriangleIndex(const AttributedGraph& g, const GraphMask& mask,
                ParallelHelpers* helpers);

  // (color(w) << 1) | attr(w) under the coloring of the last SortIntoRuns:
  // a vertex's M_e key.
  uint32_t KeyOf(VertexId w) const {
    return (static_cast<uint32_t>(coloring_->color[w]) << 1) |
           static_cast<uint32_t>(g_.attribute(w));
  }

  // Counts each edge's slots by the attribute of their third vertex into
  // tally[2e + attr], which must be zero on entry. The count pass of
  // ColorfulSup: no keys, no sort.
  void CountByAttribute(std::vector<int32_t>& tally) const;

  // Keeps only the slots of triangles whose three edges are all alive,
  // moved down in edge order, so a dead edge keeps no slots. The slot array
  // is resized, not reallocated. The runs are void afterwards: call
  // SortIntoRuns, which sizes the flags to the survivors, before the next
  // color peel.
  void Compact(const std::vector<uint8_t>& alive);

  // Sorts each edge's slots into runs under `coloring` and reports every
  // edge's initial color classes and per-attribute slot counts through
  // `on_edge(e, runs)`, which may run on several threads at once and must
  // write only edge e's state. The keys of KeyOf, Kill and HasAlive are
  // `coloring`'s from here on, so it must outlive the peel that follows.
  // Callers allocate their per-edge state after the constructor, once the
  // orientation and the triangle array are freed, so they never coexist.
  template <typename EdgeFn>
  void SortIntoRuns(const Coloring& coloring, EdgeFn&& on_edge) {
    coloring_ = &coloring;
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
  // Edges per ParallelFor chunk of SortIntoRuns and CountByAttribute.
  static constexpr size_t kSortGrain = 8192;

  struct Keyed {
    uint64_t order;  // (key << 32) | first: a total order within an edge
    EdgeId second;
  };

  // Sorts edge e's slots into runs, sets their flags and returns e's color
  // classes and slot counts. `scratch` is reused across the edges of one
  // chunk.
  EdgeRuns SortEdge(EdgeId e, std::vector<Keyed>& scratch);

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
  const Coloring* coloring_ = nullptr;  // set by SortIntoRuns
  ParallelHelpers* helpers_;  // null when the index is too small to share
  std::vector<uint64_t> offsets_;  // size E+1
  std::vector<Slot> slots_;        // 3 per triangle
  std::vector<uint8_t> flags_;     // kAlive | kRunHead, parallel to slots_
};

}  // namespace fairclique

#endif  // FAIRCLIQUE_REDUCTION_TRIANGLE_INDEX_H_
