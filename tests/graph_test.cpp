#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <set>
#include <vector>

#include "graph/graph.h"
#include "graph/triangles.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder(0);
  AttributedGraph g = builder.Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, SingleVertexNoEdges) {
  GraphBuilder builder(1);
  AttributedGraph g = builder.Build();
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, SelfLoopsDropped) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 0);
  builder.AddEdge(1, 1);
  builder.AddEdge(0, 1);
  AttributedGraph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, DuplicateEdgesCollapsed) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  AttributedGraph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, AttributesStored) {
  AttributedGraph g = MakeGraph("ab", {{0, 1}});
  EXPECT_EQ(g.attribute(0), Attribute::kA);
  EXPECT_EQ(g.attribute(1), Attribute::kB);
  EXPECT_EQ(g.attribute_counts().a(), 1);
  EXPECT_EQ(g.attribute_counts().b(), 1);
}

TEST(GraphTest, AdjacencySortedAndSymmetric) {
  AttributedGraph g = RandomAttributedGraph(60, 0.2, 101);
  EXPECT_TRUE(g.Validate().ok());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (VertexId w : nbrs) {
      auto back = g.neighbors(w);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v));
    }
  }
}

TEST(GraphTest, HasEdgeAgainstAdjacency) {
  AttributedGraph g = RandomAttributedGraph(40, 0.15, 7);
  std::set<std::pair<VertexId, VertexId>> edge_set;
  for (const Edge& e : g.edges()) edge_set.insert({e.u, e.v});
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
      EXPECT_EQ(g.HasEdge(u, v), edge_set.count({u, v}) > 0);
      EXPECT_EQ(g.HasEdge(v, u), g.HasEdge(u, v));
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FALSE(g.HasEdge(v, v));
  }
}

TEST(GraphTest, FindEdgeReturnsConsistentIds) {
  AttributedGraph g = RandomAttributedGraph(30, 0.3, 3);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edges()[e];
    EXPECT_EQ(g.FindEdge(edge.u, edge.v), e);
    EXPECT_EQ(g.FindEdge(edge.v, edge.u), e);
  }
  EXPECT_EQ(g.FindEdge(0, 0), kInvalidEdge);
}

TEST(GraphTest, MaxDegreeMatchesManualScan) {
  AttributedGraph g = RandomAttributedGraph(50, 0.25, 9);
  uint32_t expected = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    expected = std::max(expected, g.degree(v));
  }
  EXPECT_EQ(g.max_degree(), expected);
}

TEST(InducedSubgraphTest, TriangleFromSquareWithDiagonal) {
  // 0-1-2-3-0 plus diagonal 0-2.
  AttributedGraph g =
      MakeGraph("abab", {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  std::vector<VertexId> verts{0, 1, 2};
  std::vector<VertexId> original;
  AttributedGraph sub = g.InducedSubgraph(verts, &original);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 3u);  // Triangle 0-1-2.
  EXPECT_EQ(original, verts);
  EXPECT_EQ(sub.attribute(0), Attribute::kA);
  EXPECT_EQ(sub.attribute(1), Attribute::kB);
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(InducedSubgraphTest, PreservesEdgesExactly) {
  AttributedGraph g = RandomAttributedGraph(40, 0.2, 21);
  std::vector<VertexId> verts{3, 8, 9, 15, 22, 31, 39};
  AttributedGraph sub = g.InducedSubgraph(verts);
  for (size_t i = 0; i < verts.size(); ++i) {
    for (size_t j = i + 1; j < verts.size(); ++j) {
      EXPECT_EQ(sub.HasEdge(static_cast<VertexId>(i), static_cast<VertexId>(j)),
                g.HasEdge(verts[i], verts[j]));
    }
  }
}

TEST(FilteredSubgraphTest, DropsDeadVerticesAndEdges) {
  AttributedGraph g =
      MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  std::vector<uint8_t> valive{1, 1, 1, 0};
  std::vector<uint8_t> ealive(g.num_edges(), 1);
  ealive[g.FindEdge(0, 2)] = 0;
  std::vector<VertexId> original;
  AttributedGraph sub = g.FilteredSubgraph(valive, ealive, &original);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);  // 0-1, 1-2 survive; 0-2 dropped; 3 dead.
  EXPECT_EQ(original, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(GraphBuilderTest, ShuffledDuplicatedEdgesBuildTheSortedGraph) {
  // The same edge set fed sorted, and shuffled with both orientations and
  // duplicates, must build the identical valid graph.
  AttributedGraph g = RandomAttributedGraph(300, 0.05, 11);
  std::vector<Edge> input;
  for (const Edge& e : g.edges()) {
    input.push_back(e);
    input.push_back({e.v, e.u});
    if (e.u % 3 == 0) input.push_back(e);
  }
  std::mt19937 shuffle_rng(7);
  std::shuffle(input.begin(), input.end(), shuffle_rng);
  GraphBuilder builder(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    builder.SetAttribute(v, g.attribute(v));
  }
  for (const Edge& e : input) builder.AddEdge(e.u, e.v);
  AttributedGraph rebuilt = builder.Build();
  ASSERT_TRUE(rebuilt.Validate().ok()) << rebuilt.Validate().ToString();
  EXPECT_EQ(testing_util::EdgesOf(rebuilt), testing_util::EdgesOf(g));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(std::ranges::equal(rebuilt.neighbors(v), g.neighbors(v)));
    ASSERT_TRUE(std::ranges::equal(rebuilt.edge_ids(v), g.edge_ids(v)));
  }
  EXPECT_EQ(rebuilt.max_degree(), g.max_degree());
}

TEST(FilteredSubgraphTest, EqualsAnIndependentlyBuiltGraph) {
  AttributedGraph g = RandomAttributedGraph(200, 0.08, 5);
  std::vector<uint8_t> valive(g.num_vertices());
  std::vector<uint8_t> ealive(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) valive[v] = v % 5 != 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) ealive[e] = e % 4 != 1;
  std::vector<VertexId> original;
  AttributedGraph sub = g.FilteredSubgraph(valive, ealive, &original);
  ASSERT_TRUE(sub.Validate().ok());

  // Reference: map the surviving edges by hand, in reverse order, through
  // a fresh builder (which then has to sort them).
  std::vector<VertexId> local(g.num_vertices(), kInvalidVertex);
  std::vector<VertexId> kept;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (valive[v]) {
      local[v] = static_cast<VertexId>(kept.size());
      kept.push_back(v);
    }
  }
  GraphBuilder builder(static_cast<VertexId>(kept.size()));
  for (size_t i = 0; i < kept.size(); ++i) {
    builder.SetAttribute(static_cast<VertexId>(i), g.attribute(kept[i]));
  }
  for (EdgeId e = g.num_edges(); e-- > 0;) {
    const Edge& edge = g.edges()[e];
    if (ealive[e] && valive[edge.u] && valive[edge.v]) {
      builder.AddEdge(local[edge.v], local[edge.u]);
    }
  }
  AttributedGraph reference = builder.Build();
  EXPECT_EQ(original, kept);
  EXPECT_EQ(testing_util::EdgesOf(sub), testing_util::EdgesOf(reference));
  for (VertexId v = 0; v < sub.num_vertices(); ++v) {
    EXPECT_EQ(sub.attribute(v), reference.attribute(v));
    ASSERT_TRUE(std::ranges::equal(sub.neighbors(v), reference.neighbors(v)));
    ASSERT_TRUE(std::ranges::equal(sub.edge_ids(v), reference.edge_ids(v)));
  }
}

TEST(ConnectedComponentsTest, SplitsDisjointTriangles) {
  AttributedGraph g =
      MakeGraph("aaabbb", {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  auto comps = g.ConnectedComponents();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(comps[1], (std::vector<VertexId>{3, 4, 5}));
}

TEST(ConnectedComponentsTest, IsolatedVerticesAreSingletons) {
  AttributedGraph g = MakeGraph("aab", {{0, 1}});
  auto comps = g.ConnectedComponents();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[1], (std::vector<VertexId>{2}));
}

TEST(ConnectedComponentsTest, CoverAllVerticesOnce) {
  AttributedGraph g = RandomAttributedGraph(80, 0.02, 5);
  auto comps = g.ConnectedComponents();
  std::set<VertexId> seen;
  for (const auto& comp : comps) {
    for (VertexId v : comp) {
      EXPECT_TRUE(seen.insert(v).second) << "vertex in two components";
    }
  }
  EXPECT_EQ(seen.size(), g.num_vertices());
}

TEST(TrianglesTest, CommonNeighborsOfSquareDiagonal) {
  AttributedGraph g =
      MakeGraph("abab", {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  // Common neighbors of 0 and 2 are 1 and 3.
  std::vector<VertexId> common;
  ForEachCommonNeighbor(g, 0, 2, [&](VertexId w, EdgeId e1, EdgeId e2) {
    common.push_back(w);
    EXPECT_EQ(g.edges()[e1].u, std::min<VertexId>(0, w));
    EXPECT_EQ(g.edges()[e2].u, std::min<VertexId>(2, w));
  });
  EXPECT_EQ(common, (std::vector<VertexId>{1, 3}));
}

TEST(TrianglesTest, CountTrianglesOnKnownGraphs) {
  // K4 has 4 triangles.
  AttributedGraph k4 =
      MakeGraph("aabb", {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(CountTriangles(k4), 4u);
  // A square has none.
  AttributedGraph square = MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(CountTriangles(square), 0u);
}

TEST(TrianglesTest, CountMatchesBruteForce) {
  AttributedGraph g = RandomAttributedGraph(25, 0.3, 77);
  uint64_t brute = 0;
  for (VertexId a = 0; a < g.num_vertices(); ++a) {
    for (VertexId b = a + 1; b < g.num_vertices(); ++b) {
      for (VertexId c = b + 1; c < g.num_vertices(); ++c) {
        if (g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(a, c)) ++brute;
      }
    }
  }
  EXPECT_EQ(CountTriangles(g), brute);
}

TEST(TrianglesTest, ForEachTriangleListsEachOnceInIdOrder) {
  AttributedGraph g = RandomAttributedGraph(30, 0.35, 78);
  std::set<std::array<VertexId, 3>> seen;
  ForEachTriangle(g, [&](EdgeId uv, EdgeId uw, EdgeId vw) {
    const Edge& a = g.edges()[uv];
    const Edge& b = g.edges()[uw];
    const Edge& c = g.edges()[vw];
    // u < v < w: uv = {u,v}, uw = {u,w}, vw = {v,w}.
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, c.u);
    EXPECT_EQ(b.v, c.v);
    EXPECT_LT(a.v, b.v);
    EXPECT_TRUE(seen.insert({a.u, a.v, b.v}).second) << "listed twice";
  });
  std::set<std::array<VertexId, 3>> brute;
  for (VertexId a = 0; a < g.num_vertices(); ++a) {
    for (VertexId b = a + 1; b < g.num_vertices(); ++b) {
      for (VertexId c = b + 1; c < g.num_vertices(); ++c) {
        if (g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(a, c)) {
          brute.insert({a, b, c});
        }
      }
    }
  }
  EXPECT_EQ(seen, brute);
}

TEST(AttrCountsTest, Helpers) {
  AttrCounts c;
  c[Attribute::kA] = 5;
  c[Attribute::kB] = 3;
  EXPECT_EQ(c.Total(), 8);
  EXPECT_EQ(c.Min(), 3);
  EXPECT_EQ(c.Max(), 5);
  EXPECT_EQ(c.Diff(), 2);
}

TEST(FairnessParamsTest, SatisfiedConditions) {
  FairnessParams p{2, 1};
  AttrCounts ok;
  ok[Attribute::kA] = 2;
  ok[Attribute::kB] = 3;
  EXPECT_TRUE(p.Satisfied(ok));
  AttrCounts low = ok;
  low[Attribute::kA] = 1;
  EXPECT_FALSE(p.Satisfied(low));
  AttrCounts wide = ok;
  wide[Attribute::kB] = 4;
  EXPECT_FALSE(p.Satisfied(wide));
}

TEST(FairnessParamsTest, BestFairSubsetSize) {
  FairnessParams p{2, 1};
  AttrCounts avail;
  avail[Attribute::kA] = 3;
  avail[Attribute::kB] = 8;
  // min(11, 2*3+1) = 7.
  EXPECT_EQ(p.BestFairSubsetSize(avail), 7);
  avail[Attribute::kA] = 1;  // Below k -> infeasible.
  EXPECT_EQ(p.BestFairSubsetSize(avail), 0);
  avail[Attribute::kA] = 8;  // Balanced: total wins.
  EXPECT_EQ(p.BestFairSubsetSize(avail), 16);
}

}  // namespace
}  // namespace fairclique
