#include "core/prepared_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/enumeration.h"
#include "core/max_fair_clique.h"
#include "core/verifier.h"
#include "datasets/datasets.h"
#include "reduction/reduce.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

// Two balanced K4s, a balanced triangle-free path, and two isolated
// vertices: disconnected by construction, with reduction-surviving and
// reduction-pruned regions.
AttributedGraph DisconnectedGraph() {
  // Vertices 0-3: K4 "abab"; 4-7: K4 "aabb"; 8-11: path "abab"; 12-13
  // isolated "ab".
  GraphBuilder b(14);
  const char* attrs = "ababaabbababab";
  for (VertexId v = 0; v < 14; ++v) {
    b.SetAttribute(v, attrs[v] == 'a' ? Attribute::kA : Attribute::kB);
  }
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  for (VertexId u = 4; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(8, 9);
  b.AddEdge(9, 10);
  b.AddEdge(10, 11);
  return b.Build();
}

// ------------------------------------------------- original_ids round trips

// Satellite: ReductionPipelineResult::original_ids must round-trip on a
// disconnected graph — every reduced vertex maps to an input vertex with
// the same attribute, every reduced edge to an input edge, and the map is
// strictly increasing (the FilteredSubgraph contract the prepared-plan
// forwarding rule relies on).
TEST(ReductionRoundTripTest, OriginalIdsRoundTripOnDisconnectedGraph) {
  AttributedGraph g = DisconnectedGraph();
  ReductionPipelineResult reduced = ReduceForFairClique(g, 2, {});
  const AttributedGraph& rg = reduced.reduced;
  ASSERT_EQ(reduced.original_ids.size(), rg.num_vertices());
  EXPECT_TRUE(std::is_sorted(reduced.original_ids.begin(),
                             reduced.original_ids.end()));
  EXPECT_EQ(std::adjacent_find(reduced.original_ids.begin(),
                               reduced.original_ids.end()),
            reduced.original_ids.end());  // strictly increasing -> unique
  for (VertexId v = 0; v < rg.num_vertices(); ++v) {
    VertexId orig = reduced.original_ids[v];
    ASSERT_LT(orig, g.num_vertices());
    EXPECT_EQ(rg.attribute(v), g.attribute(orig));
    for (VertexId w : rg.neighbors(v)) {
      EXPECT_TRUE(g.HasEdge(orig, reduced.original_ids[w]))
          << "reduced edge {" << v << "," << w << "} has no original edge";
    }
  }
  // The k=2 colorful reductions keep the two K4s and drop the path and the
  // isolated vertices (none of which can hold a (2,*) fair clique).
  EXPECT_EQ(rg.num_vertices(), 8u);
  for (VertexId orig : reduced.original_ids) EXPECT_LT(orig, 8u);
}

TEST(ReductionRoundTripTest, EmptiedGraphYieldsEmptyIds) {
  AttributedGraph g = DisconnectedGraph();
  // k = 10 exceeds any clique in the 14-vertex graph: everything reduces
  // away, and the id map must be empty rather than stale.
  ReductionPipelineResult reduced = ReduceForFairClique(g, 10, {});
  EXPECT_EQ(reduced.reduced.num_vertices(), 0u);
  EXPECT_EQ(reduced.reduced.num_edges(), 0u);
  EXPECT_TRUE(reduced.original_ids.empty());
  EXPECT_FALSE(reduced.stages.empty());
}

// Same round trip through the PreparedGraph path: component-local ids must
// compose (component -> reduced -> input) correctly, and components must
// partition the reduced vertex set.
TEST(PreparedGraphTest, ComponentIdsRoundTripOnDisconnectedGraph) {
  AttributedGraph g = DisconnectedGraph();
  auto prepared = PrepareGraph(g, 2, {});
  ASSERT_EQ(prepared->components.size(), 2u);  // the two K4s
  std::set<VertexId> seen;
  for (const auto& comp : prepared->components) {
    ASSERT_EQ(comp->original_ids.size(), comp->graph.num_vertices());
    for (VertexId v = 0; v < comp->graph.num_vertices(); ++v) {
      VertexId orig = comp->original_ids[v];
      ASSERT_LT(orig, g.num_vertices());
      EXPECT_TRUE(seen.insert(orig).second)
          << "vertex " << orig << " appears in two components";
      EXPECT_EQ(comp->graph.attribute(v), g.attribute(orig));
      for (VertexId w : comp->graph.neighbors(v)) {
        EXPECT_TRUE(g.HasEdge(orig, comp->original_ids[w]));
      }
    }
  }
  EXPECT_EQ(seen.size(), prepared->original_ids.size());
}

TEST(PreparedGraphTest, EmptiedByReductionSearchesToEmptyAnswer) {
  AttributedGraph g = DisconnectedGraph();
  auto prepared = PrepareGraph(g, 10, {});
  EXPECT_EQ(prepared->reduced.num_vertices(), 0u);
  EXPECT_TRUE(prepared->original_ids.empty());
  EXPECT_TRUE(prepared->components.empty());

  SearchOptions options = FullOptions(10, 2, ExtraBound::kColorfulPath);
  SearchResult staged = SearchPreparedGraph(g, *prepared, options);
  EXPECT_TRUE(staged.clique.empty());
  EXPECT_TRUE(staged.stats.completed);
  SearchResult mono = FindMaximumFairClique(g, options);
  EXPECT_TRUE(mono.clique.empty());
}

// --------------------------------------------------- staged == monolithic

TEST(PreparedGraphTest, StagedPlanMatchesMonolithOnRandomGraphs) {
  for (uint64_t seed : {101u, 102u, 103u}) {
    AttributedGraph g = RandomAttributedGraph(60, 0.2, seed);
    auto prepared = PrepareGraph(g, 2, {});
    for (int delta : {0, 1, 2}) {
      SearchOptions options = BoundedOptions(2, delta, ExtraBound::kColorfulPath);
      SearchResult staged = SearchPreparedGraph(g, *prepared, options);
      SearchResult mono = FindMaximumFairClique(g, options);
      EXPECT_EQ(staged.clique.size(), mono.clique.size())
          << "seed=" << seed << " delta=" << delta;
      if (!staged.clique.empty()) {
        EXPECT_TRUE(
            VerifyFairClique(g, staged.clique.vertices, options.params).ok());
      }
    }
  }
}

TEST(PreparedGraphTest, StagedPlanMatchesOracle) {
  for (uint64_t seed : {7u, 8u}) {
    AttributedGraph g = RandomAttributedGraph(18, 0.4, seed);
    FairnessParams params{2, 1};
    CliqueResult oracle = MaxFairCliqueByEnumeration(g, params);
    auto prepared = PrepareGraph(g, 2, {});
    SearchResult staged =
        SearchPreparedGraph(g, *prepared, BoundedOptions(2, 1,
                                                         ExtraBound::kNone));
    EXPECT_EQ(staged.clique.size(), oracle.size()) << "seed " << seed;
  }
}

// One plan serves a whole delta sweep — the reuse the PreparedGraphCache
// builds on. Answers must equal fresh monolithic searches for every delta.
TEST(PreparedGraphTest, OnePlanServesDeltaSweep) {
  AttributedGraph g = LoadDataset("dblp-s", 0.3);
  auto prepared = PrepareGraph(g, 3, {});
  for (int delta = 0; delta <= 3; ++delta) {
    SearchOptions options = BoundedOptions(3, delta, ExtraBound::kColorfulPath);
    SearchResult staged = SearchPreparedGraph(g, *prepared, options);
    SearchResult mono = FindMaximumFairClique(g, options);
    EXPECT_EQ(staged.clique.size(), mono.clique.size()) << "delta " << delta;
  }
  // The heuristic preset rides the same plan (it runs in the Branch stage).
  SearchOptions full = FullOptions(3, 1, ExtraBound::kColorfulPath);
  EXPECT_EQ(SearchPreparedGraph(g, *prepared, full).clique.size(),
            FindMaximumFairClique(g, full).clique.size());
}

// The memoized per-order positions: one plan answers under all three
// branch orders (identical sizes — ordering never changes the answer), and
// repeated queries per order reuse the memo (exercised under TSan/ASan via
// the concurrent service stress test).
TEST(PreparedGraphTest, AllBranchOrdersShareOnePlan) {
  AttributedGraph g = RandomAttributedGraph(80, 0.15, 0x0DDE);
  auto prepared = PrepareGraph(g, 2, {});
  SearchOptions base = BoundedOptions(2, 2, ExtraBound::kColorfulDegeneracy);
  size_t expected = FindMaximumFairClique(g, base).clique.size();
  for (BranchOrder order : {BranchOrder::kColorfulCore,
                            BranchOrder::kDegeneracy, BranchOrder::kDegree}) {
    SearchOptions options = base;
    options.order = order;
    for (int repeat = 0; repeat < 2; ++repeat) {
      EXPECT_EQ(SearchPreparedGraph(g, *prepared, options).clique.size(),
                expected);
    }
  }
}

TEST(PreparedGraphTest, CompatibleChecksKAndReductions) {
  AttributedGraph g = MakeGraph("abab", {{0, 1}, {0, 2}, {0, 3}, {1, 2},
                                         {1, 3}, {2, 3}});
  auto prepared = PrepareGraph(g, 2, {});
  EXPECT_TRUE(prepared->Compatible(BaselineOptions(2, 1)));
  EXPECT_FALSE(prepared->Compatible(BaselineOptions(3, 1)));
  SearchOptions no_sup = BaselineOptions(2, 1);
  no_sup.reductions.use_colorful_sup = false;
  EXPECT_FALSE(prepared->Compatible(no_sup));
}

// Warm starts flow through the staged path identically: a valid clique
// seeds the incumbent, an invalid one is ignored.
TEST(PreparedGraphTest, SeedIncumbentVerifiesWarmStart) {
  AttributedGraph g = MakeGraph("abab", {{0, 1}, {0, 2}, {0, 3}, {1, 2},
                                         {1, 3}, {2, 3}});
  auto prepared = PrepareGraph(g, 1, {});
  SearchOptions options = BaselineOptions(1, 0);
  options.warm_start = {0, 1};  // valid fair 2-clique
  IncumbentSeed seed = SeedIncumbent(g, *prepared, options);
  EXPECT_EQ(seed.clique.size(), 2u);

  options.warm_start = {0, 1, 2};  // |a|=2,|b|=1 violates delta=0
  seed = SeedIncumbent(g, *prepared, options);
  EXPECT_TRUE(seed.clique.empty());

  SearchResult r = SearchPreparedGraph(g, *prepared, options);
  EXPECT_EQ(r.clique.size(), 4u);  // the search still proves optimality
}

// ----------------------------------------------- deterministic aggregation

// Satellite: multi-component stats must aggregate by summation in component
// order. Two sequential staged runs are bit-identical; a parallel run sums
// per-component branch times into component_search_micros instead of
// letting the last finisher win.
TEST(PreparedGraphTest, StatsAggregateDeterministically) {
  // Several mid-size components so the parallel path distributes work.
  GraphBuilder b(90);
  const char attrs[] = "ababab";
  for (int c = 0; c < 3; ++c) {
    VertexId base = static_cast<VertexId>(c * 30);
    for (VertexId u = 0; u < 6; ++u) {
      b.SetAttribute(base + u, attrs[u] == 'a' ? Attribute::kA : Attribute::kB);
      for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(base + u, base + v);
    }
  }
  AttributedGraph g = b.Build();
  auto prepared = PrepareGraph(g, 2, {});
  ASSERT_EQ(prepared->components.size(), 3u);

  SearchOptions seq = BaselineOptions(2, 1);
  SearchResult r1 = SearchPreparedGraph(g, *prepared, seq);
  SearchResult r2 = SearchPreparedGraph(g, *prepared, seq);
  EXPECT_EQ(r1.stats.nodes, r2.stats.nodes);
  EXPECT_EQ(r1.stats.size_prunes, r2.stats.size_prunes);
  EXPECT_EQ(r1.stats.attr_prunes, r2.stats.attr_prunes);
  EXPECT_EQ(r1.clique.vertices, r2.clique.vertices);

  // The same stage's tasks on concurrent threads: the answer size holds and
  // exactly one task reports finishing the stage.
  BranchStage stage(g, *prepared, seq, Deadline());
  ASSERT_EQ(stage.num_tasks(), 3u);
  std::atomic<int> finishers{0};
  std::vector<std::thread> threads;
  for (size_t task = 0; task < stage.num_tasks(); ++task) {
    threads.emplace_back([&stage, &finishers, task] {
      if (stage.RunTask(task)) finishers.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(finishers.load(), 1);
  SearchResult rp = stage.Aggregate();
  EXPECT_EQ(rp.clique.size(), r1.clique.size());
  EXPECT_TRUE(rp.stats.completed);
  // The summed per-component time is populated and covers every branched
  // component, not just the last writer.
  EXPECT_GE(rp.stats.component_search_micros, 0);
}

// The wrapper contract: FindMaximumFairClique == PrepareGraph +
// SearchPreparedGraph, including the timing glue.
TEST(PreparedGraphTest, MonolithIsThinWrapper) {
  AttributedGraph g = RandomAttributedGraph(70, 0.2, 0xFACE);
  SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  SearchResult mono = FindMaximumFairClique(g, options);
  auto prepared = PrepareGraph(g, 2, {});
  SearchResult staged = SearchPreparedGraph(g, *prepared, options);
  EXPECT_EQ(mono.clique.size(), staged.clique.size());
  EXPECT_GE(mono.stats.total_micros, mono.stats.search_micros);
  EXPECT_FALSE(mono.stats.reduction_stages.empty());
  EXPECT_EQ(mono.stats.reduction_stages.size(),
            staged.stats.reduction_stages.size());
}

}  // namespace
}  // namespace fairclique
