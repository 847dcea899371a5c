#include "reduction/triangle_index.h"

#include <algorithm>

#include "graph/triangles.h"

namespace fairclique {

namespace {

// Edge ranges of the slot count and fill passes when helpers are present.
constexpr size_t kOwnerRanges = 3;

}  // namespace

TriangleIndex::TriangleIndex(const AttributedGraph& g,
                             ParallelHelpers* helpers)
    : g_(g) {
  const EdgeId m = g.num_edges();
  const std::vector<Triangle> triangles =
      DegreeOrientation(g, helpers).ListTriangles(helpers);
  helpers_ = HelpersForWork(helpers, std::max<uint64_t>(m, triangles.size()));
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

void TriangleIndex::CountByAttribute(std::vector<int32_t>& tally) const {
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

void TriangleIndex::Compact(const std::vector<uint8_t>& alive) {
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

EdgeRuns TriangleIndex::SortEdge(EdgeId e, std::vector<Keyed>& scratch) {
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

}  // namespace fairclique
