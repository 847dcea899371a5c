#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "core/enumeration.h"
#include "graph/coloring.h"
#include "reduction/colorful_support.h"
#include "reduction/reduce.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

// Brute-force colorful supports from the definition.
std::vector<AttrCounts> BruteSupports(const AttributedGraph& g,
                                      const Coloring& c) {
  std::vector<AttrCounts> sup(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edges()[e];
    std::set<ColorId> ca, cb;
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      if (w == edge.u || w == edge.v) continue;
      if (g.HasEdge(edge.u, w) && g.HasEdge(edge.v, w)) {
        (g.attribute(w) == Attribute::kA ? ca : cb).insert(c.color[w]);
      }
    }
    sup[e][Attribute::kA] = static_cast<int64_t>(ca.size());
    sup[e][Attribute::kB] = static_cast<int64_t>(cb.size());
  }
  return sup;
}

// Brute-force fixpoint of Lemma 3's thresholds: repeatedly drop any edge
// violating them in the current subgraph. The supports count distinct
// colors per attribute (ColorfulSup) or, with `count_neighbors`, common
// neighbors per attribute (ColorfulSupReduction's count phase).
std::vector<uint8_t> BruteSupportFixpoint(const AttributedGraph& g,
                                          const Coloring& c, int k,
                                          bool count_neighbors) {
  std::vector<uint8_t> alive(g.num_edges(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!alive[e]) continue;
      const Edge& edge = g.edges()[e];
      std::set<int64_t> ca, cb;
      for (VertexId w = 0; w < g.num_vertices(); ++w) {
        if (w == edge.u || w == edge.v) continue;
        EdgeId e1 = g.FindEdge(edge.u, w);
        EdgeId e2 = g.FindEdge(edge.v, w);
        if (e1 == kInvalidEdge || e2 == kInvalidEdge) continue;
        if (!alive[e1] || !alive[e2]) continue;
        (g.attribute(w) == Attribute::kA ? ca : cb)
            .insert(count_neighbors ? static_cast<int64_t>(w) : c.color[w]);
      }
      int64_t ta, tb;
      SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
      if (static_cast<int64_t>(ca.size()) < ta ||
          static_cast<int64_t>(cb.size()) < tb) {
        alive[e] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

std::vector<uint8_t> BruteColorfulSupFixpoint(const AttributedGraph& g,
                                              const Coloring& c, int k) {
  return BruteSupportFixpoint(g, c, k, /*count_neighbors=*/false);
}

std::vector<uint8_t> BruteCountFixpoint(const AttributedGraph& g,
                                        const Coloring& c, int k) {
  return BruteSupportFixpoint(g, c, k, /*count_neighbors=*/true);
}

// Brute-force fixpoint of the EnColorfulSup feasibility condition.
std::vector<uint8_t> BruteEnColorfulSupFixpoint(const AttributedGraph& g,
                                                const Coloring& c, int k) {
  std::vector<uint8_t> alive(g.num_edges(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!alive[e]) continue;
      const Edge& edge = g.edges()[e];
      std::set<ColorId> ca, cb;
      for (VertexId w = 0; w < g.num_vertices(); ++w) {
        if (w == edge.u || w == edge.v) continue;
        EdgeId e1 = g.FindEdge(edge.u, w);
        EdgeId e2 = g.FindEdge(edge.v, w);
        if (e1 == kInvalidEdge || e2 == kInvalidEdge) continue;
        if (!alive[e1] || !alive[e2]) continue;
        (g.attribute(w) == Attribute::kA ? ca : cb).insert(c.color[w]);
      }
      int64_t only_a = 0, only_b = 0, mixed = 0;
      for (ColorId col : ca) {
        if (cb.count(col)) {
          ++mixed;
        } else {
          ++only_a;
        }
      }
      for (ColorId col : cb) {
        if (!ca.count(col)) ++only_b;
      }
      int64_t ta, tb;
      SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
      int64_t need_a = std::max<int64_t>(0, ta - only_a);
      int64_t need_b = std::max<int64_t>(0, tb - only_b);
      if (need_a + need_b > mixed) {
        alive[e] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

// Alternating attributes "abab...", n vertices.
std::string AlternatingAttrs(int n) {
  std::string attrs;
  for (int v = 0; v < n; ++v) attrs += v % 2 == 0 ? 'a' : 'b';
  return attrs;
}

// Edge {0, 1} of two a-vertices whose common neighbors 2..4 are an
// independent set of b-vertices, so GreedyColoring gives them one color:
// count support (0, 3), colorful support (0, 1). Each side edge {0, w} or
// {1, w} lies in its own K_4 (attributes a, b, a, b), which meets Lemma 3's
// k = 2 thresholds on its own. At k = 2 the count phase removes nothing and
// the color phase removes exactly {0, 1}; from k = 3 on the count phase
// removes every edge.
AttributedGraph SameColorFan() {
  std::vector<std::pair<int, int>> edges = {{0, 1}};
  for (int i = 0; i < 3; ++i) {
    const int w = 2 + i;
    const int p = 5 + 4 * i;  // p, p+1 join hub 0; p+2, p+3 join hub 1
    for (int hub = 0; hub < 2; ++hub) {
      const int x = p + 2 * hub;
      edges.insert(edges.end(), {{hub, w}, {hub, x}, {hub, x + 1},
                                 {w, x}, {w, x + 1}, {x, x + 1}});
    }
  }
  return MakeGraph("aabbb" "abababababab", edges);
}

// Degree-tie and hub shapes for the triangle listing's degree orientation:
// every vertex tied (K_8), one hub above a clique of its leaves, no
// triangles at all, nothing at all, and isolated vertices beside a clique;
// and the same-color fan, which separates ColorfulSupReduction's count and
// color phases.
std::vector<std::pair<std::string, AttributedGraph>> ShapeGraphs() {
  std::vector<std::pair<std::string, AttributedGraph>> shapes;
  std::vector<std::pair<int, int>> k8;
  for (int u = 0; u < 8; ++u) {
    for (int v = u + 1; v < 8; ++v) k8.push_back({u, v});
  }
  shapes.push_back({"K8", MakeGraph("aabbabab", k8)});
  // Hub 0 with 16 leaves; leaves 1..10 form a clique, 11..16 are pendant.
  std::vector<std::pair<int, int>> star;
  for (int leaf = 1; leaf <= 16; ++leaf) star.push_back({0, leaf});
  for (int u = 1; u <= 10; ++u) {
    for (int v = u + 1; v <= 10; ++v) star.push_back({u, v});
  }
  shapes.push_back({"star+clique", MakeGraph(AlternatingAttrs(17), star)});
  // 5 x 6 grid.
  std::vector<std::pair<int, int>> grid;
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 6; ++c) {
      if (c + 1 < 6) grid.push_back({r * 6 + c, r * 6 + c + 1});
      if (r + 1 < 5) grid.push_back({r * 6 + c, (r + 1) * 6 + c});
    }
  }
  shapes.push_back({"grid", MakeGraph(AlternatingAttrs(30), grid)});
  shapes.push_back({"empty", MakeGraph("", {})});
  // K_5 on vertices 3..7 of 12; the rest isolated.
  std::vector<std::pair<int, int>> isolated;
  for (int u = 3; u < 8; ++u) {
    for (int v = u + 1; v < 8; ++v) isolated.push_back({u, v});
  }
  shapes.push_back({"isolated", MakeGraph(AlternatingAttrs(12), isolated)});
  shapes.push_back({"same-color fan", SameColorFan()});
  return shapes;
}

TEST(ColorfulSupportTest, SupportsMatchBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    AttributedGraph g = RandomAttributedGraph(40, 0.25, seed);
    Coloring c = GreedyColoring(g);
    std::vector<AttrCounts> fast = ComputeColorfulSupports(g, c);
    std::vector<AttrCounts> brute = BruteSupports(g, c);
    ASSERT_EQ(fast.size(), brute.size());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(fast[e], brute[e]) << "edge " << e << " seed " << seed;
    }
  }
  for (const auto& [name, g] : ShapeGraphs()) {
    Coloring c = GreedyColoring(g);
    std::vector<AttrCounts> fast = ComputeColorfulSupports(g, c);
    std::vector<AttrCounts> brute = BruteSupports(g, c);
    ASSERT_EQ(fast.size(), brute.size()) << name;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(fast[e], brute[e]) << "edge " << e << " of " << name;
    }
  }
}

TEST(ColorfulSupportTest, ShapesReachExactFixpoints) {
  for (const auto& [name, g] : ShapeGraphs()) {
    Coloring c = GreedyColoring(g);
    for (int k = 2; k <= 5; ++k) {
      const std::vector<uint8_t> colorful = BruteColorfulSupFixpoint(g, c, k);
      EXPECT_EQ(ColorfulSupReduction(g, c, k).edge_alive, colorful)
          << name << " k=" << k;
      EXPECT_EQ(EnColorfulSupReduction(g, c, k).edge_alive,
                BruteEnColorfulSupFixpoint(g, c, k))
          << name << " k=" << k;
      // The count phase may only keep more: it starts the color phase from
      // a superset of the colorful fixpoint.
      const std::vector<uint8_t> count = BruteCountFixpoint(g, c, k);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        EXPECT_LE(colorful[e], count[e]) << name << " k=" << k << " edge " << e;
      }
    }
  }
  // The same-color fan at k = 2: the count phase keeps every edge, the color
  // phase then removes {0, 1}. At k = 3 the count phase removes every edge.
  AttributedGraph fan = SameColorFan();
  Coloring c = GreedyColoring(fan);
  ASSERT_EQ(c.color[2], c.color[3]);
  ASSERT_EQ(c.color[3], c.color[4]);
  const std::vector<uint8_t> all(fan.num_edges(), 1);
  std::vector<uint8_t> all_but_hub_edge = all;
  all_but_hub_edge[fan.FindEdge(0, 1)] = 0;
  EXPECT_EQ(BruteCountFixpoint(fan, c, 2), all);
  EXPECT_EQ(BruteColorfulSupFixpoint(fan, c, 2), all_but_hub_edge);
  EXPECT_EQ(BruteCountFixpoint(fan, c, 3),
            std::vector<uint8_t>(fan.num_edges(), 0));
}

TEST(ColorfulSupportTest, PaperExample2) {
  // Example 2: supa(v2, v5) = 2, supb(v2, v5) = 1; the edge violates the
  // mixed-attribute condition for k = 3 (needs supb >= 2).
  AttributedGraph g = PaperFigure1Graph();
  Coloring c = GreedyColoring(g);
  std::vector<AttrCounts> sup = ComputeColorfulSupports(g, c);
  EdgeId e = g.FindEdge(1, 4);  // (v2, v5)
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(sup[e][Attribute::kA], 2);
  EXPECT_EQ(sup[e][Attribute::kB], 1);
  EdgeReductionResult r = ColorfulSupReduction(g, c, 3);
  EXPECT_FALSE(r.edge_alive[e]);
}

TEST(ColorfulSupReductionTest, ReachesExactFixpoint) {
  for (uint64_t seed : {4u, 5u, 6u, 7u}) {
    AttributedGraph g = RandomAttributedGraph(35, 0.3, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 2; k <= 4; ++k) {
      EdgeReductionResult fast = ColorfulSupReduction(g, c, k);
      std::vector<uint8_t> brute = BruteColorfulSupFixpoint(g, c, k);
      EXPECT_EQ(fast.edge_alive, brute) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(EnColorfulSupReductionTest, ReachesExactFixpoint) {
  for (uint64_t seed : {8u, 9u, 10u, 11u}) {
    AttributedGraph g = RandomAttributedGraph(35, 0.3, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 2; k <= 4; ++k) {
      EdgeReductionResult fast = EnColorfulSupReduction(g, c, k);
      std::vector<uint8_t> brute = BruteEnColorfulSupFixpoint(g, c, k);
      EXPECT_EQ(fast.edge_alive, brute) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(EnColorfulSupReductionTest, StrongerThanColorfulSup) {
  for (uint64_t seed : {12u, 13u, 14u}) {
    AttributedGraph g = RandomAttributedGraph(50, 0.25, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 2; k <= 3; ++k) {
      EdgeReductionResult plain = ColorfulSupReduction(g, c, k);
      EdgeReductionResult enhanced = EnColorfulSupReduction(g, c, k);
      EXPECT_LE(enhanced.edges_left, plain.edges_left);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (enhanced.edge_alive[e]) {
          EXPECT_TRUE(plain.edge_alive[e]) << "edge " << e;
        }
      }
    }
  }
}

TEST(GreedyEnhancedSupportTest, PaperExample3) {
  // Fig. 2: ca=1, cb=2, cm=2, endpoints both 'a', k=4 -> thresholds (2, 4).
  // Greedy: gamma_a = min(2-1, 2) = 1 -> gsup_a = 2; rest = 1;
  // gamma_b = min(4-2, 1) = 1 -> gsup_b = 3. Edge violates gsup_b >= 4.
  AttrCounts gsup = GreedyEnhancedSupport(1, 2, 2, 2, 4);
  EXPECT_EQ(gsup[Attribute::kA], 2);
  EXPECT_EQ(gsup[Attribute::kB], 3);
}

TEST(GreedyEnhancedSupportTest, FeasibilityEquivalence) {
  // The greedy assignment meets both thresholds iff the deficit condition
  // max(0,ta-ca) + max(0,tb-cb) <= cm holds.
  for (int64_t ca = 0; ca <= 4; ++ca) {
    for (int64_t cb = 0; cb <= 4; ++cb) {
      for (int64_t cm = 0; cm <= 4; ++cm) {
        for (int64_t ta = 0; ta <= 4; ++ta) {
          for (int64_t tb = 0; tb <= 4; ++tb) {
            AttrCounts gsup = GreedyEnhancedSupport(ca, cb, cm, ta, tb);
            bool greedy_ok = gsup[Attribute::kA] >= ta &&
                             gsup[Attribute::kB] >= tb;
            bool feasible = std::max<int64_t>(0, ta - ca) +
                                std::max<int64_t>(0, tb - cb) <=
                            cm;
            EXPECT_EQ(greedy_ok, feasible)
                << ca << "," << cb << "," << cm << "," << ta << "," << tb;
          }
        }
      }
    }
  }
}

TEST(ReductionSoundnessTest, FairCliquesAlwaysSurviveAllStages) {
  // The flagship soundness property (Lemmas 2-4): run the full pipeline and
  // verify the exact maximum fair clique value is unchanged.
  for (uint64_t seed : {20u, 21u, 22u, 23u, 24u}) {
    AttributedGraph g = RandomAttributedGraph(45, 0.3, seed);
    for (int k = 2; k <= 3; ++k) {
      for (int delta = 0; delta <= 2; ++delta) {
        FairnessParams params{k, delta};
        CliqueResult before = MaxFairCliqueByEnumeration(g, params);
        ReductionPipelineResult reduced =
            ReduceForFairClique(g, k, ReductionOptions{});
        CliqueResult after =
            MaxFairCliqueByEnumeration(reduced.reduced, params);
        EXPECT_EQ(before.size(), after.size())
            << "reduction lost the optimum: seed=" << seed << " k=" << k
            << " delta=" << delta;
      }
    }
  }
}

TEST(ReductionPipelineTest, StagesMonotonicallyShrink) {
  AttributedGraph g = RandomAttributedGraph(80, 0.15, 30);
  ReductionPipelineResult r = ReduceForFairClique(g, 3, ReductionOptions{});
  ASSERT_EQ(r.stages.size(), 3u);
  EXPECT_LE(r.stages[0].vertices_left, g.num_vertices());
  for (size_t i = 1; i < r.stages.size(); ++i) {
    EXPECT_LE(r.stages[i].vertices_left, r.stages[i - 1].vertices_left);
    EXPECT_LE(r.stages[i].edges_left, r.stages[i - 1].edges_left);
  }
  EXPECT_EQ(r.reduced.num_vertices(), r.stages.back().vertices_left);
  // original_ids maps back into the input graph with matching attributes.
  for (VertexId v = 0; v < r.reduced.num_vertices(); ++v) {
    EXPECT_EQ(r.reduced.attribute(v), g.attribute(r.original_ids[v]));
  }
}

TEST(ReductionPipelineTest, DisabledStagesAreSkipped) {
  AttributedGraph g = RandomAttributedGraph(40, 0.2, 31);
  ReductionOptions opts;
  opts.use_colorful_sup = false;
  ReductionPipelineResult r = ReduceForFairClique(g, 2, opts);
  ASSERT_EQ(r.stages.size(), 2u);
  EXPECT_EQ(r.stages[0].name, "EnColorfulCore");
  EXPECT_EQ(r.stages[1].name, "EnColorfulSup");
}

TEST(ReductionPipelineTest, EmptyAndTinyGraphs) {
  AttributedGraph empty = MakeGraph("", {});
  ReductionPipelineResult r0 = ReduceForFairClique(empty, 2, {});
  EXPECT_EQ(r0.reduced.num_vertices(), 0u);
  AttributedGraph tiny = MakeGraph("ab", {{0, 1}});
  ReductionPipelineResult r1 = ReduceForFairClique(tiny, 2, {});
  // A (2,*) fair clique needs 4 vertices; everything dies.
  EXPECT_EQ(r1.reduced.num_edges(), 0u);
}

}  // namespace
}  // namespace fairclique
