#include "core/prepared_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
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

// The memoized CalColorOD positions: repeated queries on one plan reuse the
// memo and answer like a fresh search (exercised under TSan/ASan via the
// concurrent service stress test).
TEST(PreparedGraphTest, RepeatedQueriesReuseMemoizedPositions) {
  AttributedGraph g = RandomAttributedGraph(80, 0.15, 0x0DDE);
  auto prepared = PrepareGraph(g, 2, {});
  SearchOptions options = BoundedOptions(2, 2, ExtraBound::kColorfulDegeneracy);
  size_t expected = FindMaximumFairClique(g, options).clique.size();
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(SearchPreparedGraph(g, *prepared, options).clique.size(),
              expected);
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

// ---------------------------------------------------- seed, then lift k

// A balanced 6-clique (vertices 0-5) with a pendant path 5-6-7-8.
AttributedGraph CliqueWithTail(bool unfair_clique = false) {
  std::vector<std::pair<int, int>> edges = {{5, 6}, {6, 7}, {7, 8}};
  for (int i = 0; i < 6; ++i)
    for (int j = i + 1; j < 6; ++j) edges.push_back({i, j});
  if (!unfair_clique) return MakeGraph("ababab" "aba", edges);
  // A disjoint 7-clique of a-vertices: no fair clique, but HeurRFC's color
  // bound rises to 7, so the 6-clique seed is no longer certified.
  for (int i = 9; i < 16; ++i)
    for (int j = i + 1; j < 16; ++j) edges.push_back({i, j});
  return MakeGraph("ababab" "aba" "aaaaaaa", edges);
}

TEST(LiftedSeedTest, LiftedKIsTheFewestOfEachAttributeThatCanBeatTheSeed) {
  EXPECT_EQ(LiftedK({1, 0}, 6), 4);  // 7 vertices, |a - b| = 0: 4 and 4
  EXPECT_EQ(LiftedK({1, 2}, 6), 3);  // 7 vertices, |a - b| <= 2: 3 and 4
  EXPECT_EQ(LiftedK({2, 3}, 6), 2);  // 3 and 4 fits, but k is 2 already
  EXPECT_EQ(LiftedK({3, 1}, 0), 3);  // no seed: k itself
  EXPECT_EQ(LiftedK({1, 9}, 4), 1);  // delta past the seed: k itself
}

TEST(LiftedSeedTest, OptimalSeedLeavesAnEmptyPlan) {
  AttributedGraph g = CliqueWithTail();
  SearchOptions options = FullOptions(1, 0, ExtraBound::kColorfulPath);
  LiftedSeed lifted = SeedAndLift(g, options);
  ASSERT_EQ(lifted.seed.clique.size(), 6u);
  EXPECT_FALSE(lifted.seed.from_warm_start);
  ASSERT_EQ(lifted.plan_k, 4);
  // No 7-vertex clique with four of each attribute exists, so the lifted
  // reduction removes everything.
  auto prepared = PrepareGraph(g, lifted.plan_k, options.reductions);
  EXPECT_EQ(prepared->reduced.num_vertices(), 0u);
  EXPECT_TRUE(prepared->components.empty());

  SearchResult r = FindMaximumFairClique(g, options);
  std::vector<VertexId> seed = lifted.seed.clique.vertices;
  std::sort(seed.begin(), seed.end());
  EXPECT_EQ(r.clique.vertices, seed);
  EXPECT_EQ(r.stats.nodes, 0u);
  EXPECT_TRUE(r.stats.completed);
}

TEST(LiftedSeedTest, NonOptimalSeedStillFindsTheOptimum) {
  // HeurRFC finds 43 here and the optimum is 45, so the plan at the lifted
  // k must keep the optimum and the Branch stage must find it.
  AttributedGraph g = LoadDataset("themarker-s", 16);
  SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  LiftedSeed lifted = SeedAndLift(g, options);
  EXPECT_EQ(lifted.seed.clique.size(), 43u);
  EXPECT_EQ(lifted.plan_k, 22);

  SearchResult r = FindMaximumFairClique(g, options);
  EXPECT_TRUE(r.stats.completed);
  EXPECT_GT(r.stats.nodes, 0u);
  EXPECT_EQ(r.stats.heuristic_size, 43);
  auto at_k = PrepareGraph(g, 2, options.reductions);
  SearchResult unlifted = SearchPreparedGraph(g, *at_k, options);
  EXPECT_EQ(unlifted.clique.size(), 45u);
  EXPECT_EQ(r.clique.size(), unlifted.clique.size());
  EXPECT_TRUE(VerifyFairClique(g, r.clique.vertices, options.params).ok());
}

TEST(LiftedSeedTest, DeltaTooLargeToLiftKeepsK) {
  // delta = 3 >= |seed| + 1 - 2k = 3: a 7-clique with two of one attribute
  // and five of the other would beat the seed, so k stays 2.
  AttributedGraph g = CliqueWithTail(true);
  SearchOptions options = FullOptions(2, 3, ExtraBound::kColorfulPath);
  LiftedSeed lifted = SeedAndLift(g, options);
  ASSERT_EQ(lifted.seed.clique.size(), 6u);
  EXPECT_EQ(lifted.seed.upper_bound, 7);
  EXPECT_FALSE(lifted.certified);
  EXPECT_EQ(lifted.plan_k, 2);
  SearchResult r = FindMaximumFairClique(g, options);
  EXPECT_EQ(r.clique.size(), 6u);
  EXPECT_EQ(r.stats.reduction_stages.size(),
            PrepareGraph(g, 2, options.reductions)->stages.size());

  // Without the unfair clique the seed reaches the bound: it is the answer,
  // with no reduction and no branch node.
  g = CliqueWithTail();
  lifted = SeedAndLift(g, options);
  EXPECT_EQ(lifted.seed.upper_bound, 6);
  EXPECT_TRUE(lifted.certified);
  EXPECT_EQ(lifted.plan_k, 2);
  r = FindMaximumFairClique(g, options);
  EXPECT_EQ(r.clique.size(), 6u);
  EXPECT_TRUE(r.stats.reduction_stages.empty());
  EXPECT_EQ(r.stats.nodes, 0u);
  EXPECT_TRUE(r.stats.completed);
}

TEST(LiftedSeedTest, EmptySeedMatchesThePlanAtKNodeForNode) {
  // The baseline preset runs no heuristic and has no warm start: the seed
  // is empty, k is not lifted, and the search is the one on the plan at k.
  AttributedGraph g = LoadDataset("dblp-s", 0.25);
  for (int delta : {0, 2}) {
    SearchOptions options = BaselineOptions(3, delta);
    LiftedSeed lifted = SeedAndLift(g, options);
    EXPECT_TRUE(lifted.seed.clique.empty());
    EXPECT_EQ(lifted.plan_k, 3);
    SearchResult mono = FindMaximumFairClique(g, options);
    auto prepared = PrepareGraph(g, 3, options.reductions);
    SearchResult staged = SearchPreparedGraph(g, *prepared, options);
    EXPECT_EQ(mono.clique.vertices, staged.clique.vertices);
    EXPECT_EQ(mono.stats.nodes, staged.stats.nodes);
    EXPECT_EQ(mono.stats.size_prunes, staged.stats.size_prunes);
    EXPECT_EQ(mono.stats.attr_prunes, staged.stats.attr_prunes);
    EXPECT_EQ(mono.stats.cap_removals, staged.stats.cap_removals);
    EXPECT_EQ(mono.stats.bound_prunes, staged.stats.bound_prunes);
  }
}

TEST(LiftedSeedTest, LargerWarmStartSeedsAndLifts) {
  AttributedGraph g = CliqueWithTail();
  SearchOptions options = BaselineOptions(1, 0);
  options.warm_start = {0, 1, 2, 3, 4, 5};
  LiftedSeed lifted = SeedAndLift(g, options);
  EXPECT_TRUE(lifted.seed.from_warm_start);
  EXPECT_EQ(lifted.seed.clique.size(), 6u);
  EXPECT_EQ(lifted.plan_k, 4);
  options.warm_start = {0, 1, 2};  // two a's and one b: not fair at delta 0
  lifted = SeedAndLift(g, options);
  EXPECT_TRUE(lifted.seed.clique.empty());
  EXPECT_EQ(lifted.plan_k, 1);
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
  BranchStage stage(*prepared, seq, Deadline(),
                    SeedIncumbent(g, *prepared, seq));
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
