#include "core/heuristics.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/coloring.h"
#include "graph/cores.h"

namespace fairclique {

namespace {

// One greedy pass of HeurBranch (Algorithm 5 lines 6-28) from `start`.
// `score[v]` is the selection key (degree for DegHeur, colorful Dmin for
// ColorfulDegHeur). Returns the grown clique; the caller checks fairness.
CliqueResult GreedyGrow(const AttributedGraph& g,
                        const std::vector<int64_t>& score, VertexId start,
                        const FairnessParams& params) {
  CliqueResult result;
  result.vertices.push_back(start);
  result.attr_counts[g.attribute(start)]++;

  std::vector<VertexId> candidates(g.neighbors(start).begin(),
                                   g.neighbors(start).end());
  // Alternate away from the start vertex's attribute (Alg. 5 line 3).
  Attribute attr_choose = Other(g.attribute(start));
  int64_t amax = -1;  // Cap on either side's count once one side exhausts.

  while (!candidates.empty()) {
    // Set the cap the first time the side to pick from is exhausted
    // (Alg. 5 lines 9-11).
    AttrCounts cand_cnt;
    for (VertexId v : candidates) cand_cnt[g.attribute(v)]++;
    if (amax == -1 && cand_cnt[attr_choose] == 0) {
      amax = result.attr_counts[attr_choose] + params.delta;
    }
    // Enforce the cap (lines 12-13): a side at amax takes no more vertices.
    if (amax != -1) {
      bool drop[2] = {result.attr_counts[Attribute::kA] >= amax,
                      result.attr_counts[Attribute::kB] >= amax};
      if (drop[0] || drop[1]) {
        std::erase_if(candidates, [&](VertexId v) {
          return drop[AttrIndex(g.attribute(v))];
        });
        if (candidates.empty()) break;
        cand_cnt = AttrCounts{};
        for (VertexId v : candidates) cand_cnt[g.attribute(v)]++;
      }
    }
    // If the chosen side is empty, flip (lines 16-19).
    if (cand_cnt[attr_choose] == 0) {
      attr_choose = Other(attr_choose);
      if (cand_cnt[attr_choose] == 0) break;
    }
    // Pick the best-scoring candidate of the chosen attribute (line 20).
    VertexId best = kInvalidVertex;
    for (VertexId v : candidates) {
      if (g.attribute(v) != attr_choose) continue;
      if (best == kInvalidVertex || score[v] > score[best] ||
          (score[v] == score[best] && v < best)) {
        best = v;
      }
    }
    result.vertices.push_back(best);
    result.attr_counts[g.attribute(best)]++;
    attr_choose = Other(g.attribute(best));
    // Candidates shrink to the neighbors of the new member (line 23).
    auto nbrs = g.neighbors(best);
    std::vector<VertexId> next;
    next.reserve(candidates.size());
    std::sort(candidates.begin(), candidates.end());
    std::set_intersection(candidates.begin(), candidates.end(), nbrs.begin(),
                          nbrs.end(), std::back_inserter(next));
    candidates = std::move(next);
  }
  return result;
}

// Shared by both passes: one greedy run from the best-scoring vertex, ties
// to the lower id (max_element keeps the first maximum). Returns the grown
// clique trimmed to its best fair subset (every subset of a clique is a
// clique), or an empty clique when it has fewer than k of an attribute.
CliqueResult RunGreedy(const AttributedGraph& g,
                       const std::vector<int64_t>& score,
                       const FairnessParams& params) {
  if (g.num_vertices() == 0) return {};
  const auto start = static_cast<VertexId>(
      std::max_element(score.begin(), score.end()) - score.begin());
  CliqueResult grown = GreedyGrow(g, score, start, params);
  const int64_t best = params.BestFairSubsetSize(grown.attr_counts);
  if (best == 0) return {};
  // An unfair clique has too many of its majority attribute: drop the
  // majority vertices the greedy pass added last.
  const Attribute major = grown.attr_counts.a() > grown.attr_counts.b()
                              ? Attribute::kA
                              : Attribute::kB;
  for (size_t i = grown.size(); static_cast<int64_t>(grown.size()) > best;) {
    if (g.attribute(grown.vertices[--i]) == major) {
      grown.vertices.erase(grown.vertices.begin() + static_cast<ptrdiff_t>(i));
      grown.attr_counts[major]--;
    }
  }
  return grown;
}

// ColorfulDegHeur, also reporting how many colors its coloring of `g` used.
CliqueResult ColorfulPass(const AttributedGraph& g,
                          const FairnessParams& params, int* num_colors) {
  Coloring coloring = GreedyColoring(g);
  *num_colors = coloring.num_colors;
  std::vector<AttrCounts> d = ColorfulDegrees(g, coloring);
  std::vector<int64_t> score(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) score[v] = d[v].Min();
  return RunGreedy(g, score, params);
}

}  // namespace

CliqueResult DegHeur(const AttributedGraph& g, const FairnessParams& params) {
  std::vector<int64_t> score(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) score[v] = g.degree(v);
  return RunGreedy(g, score, params);
}

CliqueResult ColorfulDegHeur(const AttributedGraph& g,
                             const FairnessParams& params) {
  int num_colors = 0;
  return ColorfulPass(g, params, &num_colors);
}

HeuristicResult HeurRFC(const AttributedGraph& g, const FairnessParams& params) {
  HeuristicResult result;
  // Stage 1: degree-based pass on the full graph (Alg. 6 line 1).
  CliqueResult deg = DegHeur(g, params);
  result.clique = deg;

  // Stage 2: shrink to the (|R*|-1)-core — any larger fair clique survives —
  // and run the colorful-degree pass there (lines 2-4). Track vertex ids
  // through the shrink.
  AttributedGraph current = g;
  std::vector<VertexId> ids(g.num_vertices());
  std::iota(ids.begin(), ids.end(), 0);
  if (!deg.empty()) {
    current = g.FilteredSubgraph(
        KCoreAliveFlags(g, static_cast<uint32_t>(deg.size()) - 1), {}, &ids);
  }
  int remainder_colors = 0;
  CliqueResult colorful = ColorfulPass(current, params, &remainder_colors);
  if (colorful.size() > result.clique.size()) {
    // Map back to original ids.
    for (VertexId& v : colorful.vertices) v = ids[v];
    result.clique = colorful;
  }
  // R* lies in the remainder's (|R*|-1)-core, so any coloring of that core
  // uses at least |R*| colors. When the remainder's own coloring already
  // uses no more, |R*| is the bound and the core needs no second coloring.
  const auto r_star = static_cast<int64_t>(result.clique.size());
  if (remainder_colors <= r_star) {
    result.color_upper_bound = r_star;
    return result;
  }
  // Color the (|R*|-1)-core of the remainder, masked rather than copied;
  // its color count bounds any fair clique it still contains (lines 9-10).
  const uint32_t k_star =
      static_cast<uint32_t>(std::max<size_t>(result.clique.size(), 1) - 1);
  result.color_upper_bound =
      GreedyColoring(current, GraphMask{KCoreAliveFlags(current, k_star), {}})
          .num_colors;
  return result;
}

}  // namespace fairclique
