#include "service/prepared_graph_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/max_fair_clique.h"
#include "core/prepared_graph.h"
#include "core/verifier.h"
#include "datasets/datasets.h"
#include "dynamic/dynamic_graph.h"
#include "graph/fingerprint.h"
#include "service/graph_registry.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

// A balanced K6 (vertices 0-5, reduction-surviving for k=2) plus a path
// 6-7-8-9 and a pendant edge 10-11 (triangle-free, reduced away). Gives a
// graph where some edges live outside the reduced vertex set — the raw
// material of the forwarding rule.
AttributedGraph CoreAndFringeGraph() {
  GraphBuilder b(12);
  const char* attrs = "abababababab";
  for (VertexId v = 0; v < 12; ++v) {
    b.SetAttribute(v, attrs[v] == 'a' ? Attribute::kA : Attribute::kB);
  }
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(6, 7);
  b.AddEdge(7, 8);
  b.AddEdge(8, 9);
  b.AddEdge(10, 11);
  return b.Build();
}

// ----------------------------------------------------------------- caching

TEST(PreparedGraphCacheTest, KeySeparatesFingerprintKAndReductions) {
  ReductionOptions all;
  ReductionOptions no_sup = all;
  no_sup.use_colorful_sup = false;
  EXPECT_EQ(PreparedGraphCache::MakeKey(42, 3, all),
            PreparedGraphCache::MakeKey(42, 3, all));
  EXPECT_NE(PreparedGraphCache::MakeKey(42, 3, all),
            PreparedGraphCache::MakeKey(43, 3, all));
  EXPECT_NE(PreparedGraphCache::MakeKey(42, 3, all),
            PreparedGraphCache::MakeKey(42, 4, all));
  EXPECT_NE(PreparedGraphCache::MakeKey(42, 3, all),
            PreparedGraphCache::MakeKey(42, 3, no_sup));
}

TEST(PreparedGraphCacheTest, LruEvictionAndCounters) {
  AttributedGraph g = MakeGraph("abab", {{0, 1}, {0, 2}, {0, 3}, {1, 2},
                                         {1, 3}, {2, 3}});
  PreparedGraphCache cache(2);
  cache.Put("a", PrepareGraph(g, 1, {}), 1);
  cache.Put("b", PrepareGraph(g, 2, {}), 1);
  ASSERT_NE(cache.Get("a"), nullptr);  // refreshes "a"; "b" is now LRU
  cache.Put("c", PrepareGraph(g, 3, {}), 1);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);

  PreparedGraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);

  cache.Clear();
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(PreparedGraphCacheTest, ZeroCapacityDisablesCaching) {
  AttributedGraph g = MakeGraph("ab", {{0, 1}});
  PreparedGraphCache cache(0);
  cache.Put("a", PrepareGraph(g, 1, {}), 1);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Stats().insertions, 0u);
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST(PreparedGraphCacheTest, GetOrPrepareSingleFlightsConcurrentMisses) {
  AttributedGraph g = RandomAttributedGraph(60, 0.2, 0x51F);
  PreparedGraphCache cache(4);
  std::atomic<int> builds{0};
  auto build = [&] {
    builds.fetch_add(1);
    // A real reduction keeps the window open long enough for the other
    // threads to pile onto the in-flight build.
    return PrepareGraph(g, 2, {});
  };
  std::atomic<int> built_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      bool built = false;
      auto plan = cache.GetOrPrepare("k", 1, build, &built);
      EXPECT_NE(plan, nullptr);
      if (built) built_count.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  // Every thread that arrived while the first build was in flight must
  // have waited and shared it; threads arriving after publication hit.
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(built_count.load(), 1);
  EXPECT_EQ(cache.Stats().insertions, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ(cache.Stats().hits, 5u);
}

TEST(PreparedGraphCacheTest, InvalidateFingerprintDropsOnlyThatGraph) {
  AttributedGraph g = MakeGraph("abab", {{0, 1}, {0, 2}, {0, 3}, {1, 2},
                                         {1, 3}, {2, 3}});
  PreparedGraphCache cache(8);
  cache.Put("g1|k2", PrepareGraph(g, 2, {}), 1);
  cache.Put("g1|k3", PrepareGraph(g, 3, {}), 1);
  cache.Put("g2|k2", PrepareGraph(g, 2, {}), 2);
  EXPECT_EQ(cache.InvalidateFingerprint(1), 2u);
  EXPECT_EQ(cache.Get("g1|k2"), nullptr);
  EXPECT_EQ(cache.Get("g1|k3"), nullptr);
  EXPECT_NE(cache.Get("g2|k2"), nullptr);
  EXPECT_EQ(cache.Stats().invalidated, 2u);
}

// ------------------------------------------------------ executor integration

std::shared_ptr<const RegisteredGraph> RegisterGraph(GraphRegistry& registry,
                                                     const std::string& name,
                                                     AttributedGraph g) {
  EXPECT_TRUE(registry.Add(name, std::move(g)).ok());
  return registry.Get(name);
}

TEST(PreparedCacheExecutorTest, DeltaSweepReducesOnce) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "g", RandomAttributedGraph(120, 0.12, 0xABCD));
  PreparedGraphCache prepared(8);
  QueryExecutor executor(ExecutorOptions{2, 64}, nullptr, &prepared);

  for (int delta = 0; delta <= 3; ++delta) {
    SearchOptions options = BoundedOptions(2, delta, ExtraBound::kColorfulPath);
    QueryRequest request;
    request.graph = graph;
    request.options = options;
    QueryResponse response = executor.Submit(request).get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.prepared_hit, delta > 0) << "delta " << delta;
    EXPECT_EQ(response.result->clique.size(),
              FindMaximumFairClique(*graph->graph, options).clique.size());
    // On a plan hit the response reports no reduction work.
    if (response.prepared_hit) {
      EXPECT_EQ(response.result->stats.reduce_micros, 0);
    }
  }
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.prepared_builds, 1u);
  EXPECT_EQ(m.prepared_hits, 3u);
  EXPECT_EQ(prepared.Stats().entries, 1u);
}

// pokec-s at k = 2, delta = 1: HeurRFC seeds 21 of the optimal 23, so a
// plan miss prepares at k' = 11.
TEST(PreparedCacheExecutorTest, PlanMissPublishesOnePlanAtTheLiftedK) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "g", LoadDataset("pokec-s", 1));
  PreparedGraphCache prepared(8);
  QueryExecutor executor(ExecutorOptions{1, 8}, nullptr, &prepared);

  QueryRequest request;
  request.graph = graph;
  request.options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  const int plan_k = SeedAndLift(*graph->graph, request.options).plan_k;
  ASSERT_EQ(plan_k, 11);
  QueryResponse response = executor.Run(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.prepared_hit);
  EXPECT_EQ(executor.metrics().prepared_builds, 1u);
  EXPECT_EQ(prepared.Stats().entries, 1u);
  const ReductionOptions& red = request.options.reductions;
  std::shared_ptr<const PreparedGraph> plan =
      prepared.Get(PreparedGraphCache::MakeKey(graph->fingerprint, plan_k, red));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->k, plan_k);
  EXPECT_EQ(prepared.Get(PreparedGraphCache::MakeKey(graph->fingerprint, 2,
                                                     red)),
            nullptr);
  auto at_k = PrepareGraph(*graph->graph, 2, red);
  EXPECT_EQ(response.result->clique.size(),
            SearchPreparedGraph(*graph->graph, *at_k, request.options)
                .clique.size());
  EXPECT_TRUE(VerifyFairClique(*graph->graph, response.result->clique.vertices,
                               request.options.params)
                  .ok());
}

TEST(PreparedCacheExecutorTest, PlanHitAtTheRequestKBuildsNothing) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "g", LoadDataset("pokec-s", 1));
  PreparedGraphCache prepared(8);
  QueryExecutor executor(ExecutorOptions{1, 8}, nullptr, &prepared);

  // The baseline preset has no seed, so it publishes the plan at k = 2.
  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(2, 1);
  ASSERT_TRUE(executor.Run(request).status.ok());
  ASSERT_EQ(executor.metrics().prepared_builds, 1u);

  // The full preset would lift on a miss, but the plan at its own k serves.
  request.options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  request.explain = true;
  QueryResponse response = executor.Run(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.prepared_hit);
  EXPECT_EQ(response.result->stats.reduce_micros, 0);
  EXPECT_EQ(executor.metrics().prepared_builds, 1u);
  EXPECT_EQ(prepared.Stats().entries, 1u);
  EXPECT_NE(response.plan_json.find("\"lifted_k\":2,"), std::string::npos)
      << response.plan_json;
  EXPECT_EQ(response.result->clique.size(), 23u);
}

TEST(PreparedCacheExecutorTest, BypassPreparedSkipsProbeAndPublish) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "g", RandomAttributedGraph(80, 0.15, 0x1122));
  PreparedGraphCache prepared(8);
  QueryExecutor executor(ExecutorOptions{1, 16}, nullptr, &prepared);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(2, 1);
  request.bypass_prepared_cache = true;
  QueryResponse r1 = executor.Submit(request).get();
  ASSERT_TRUE(r1.status.ok());
  EXPECT_FALSE(r1.prepared_hit);
  EXPECT_EQ(prepared.Stats().entries, 0u);  // not published either

  request.bypass_prepared_cache = false;
  QueryResponse r2 = executor.Submit(request).get();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_FALSE(r2.prepared_hit);  // nothing was published to hit
  EXPECT_EQ(prepared.Stats().entries, 1u);
  EXPECT_EQ(r1.result->clique.size(), r2.result->clique.size());
}

// ------------------------------------------------------ certified seeds

// dblp-s: HeurRFC's seed reaches its color bound on every key, so each
// full-preset miss answers from the seed. It builds no plan (on either the
// cached or the bypass path), runs no component task, completes, and
// answers what the unseeded baseline preset finds by search.
TEST(CertifiedSeedTest, DblpMissesAnswerFromTheSeedWithoutAPlan) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "g", LoadDataset("dblp-s", 1));
  const AttributedGraph& g = *graph->graph;
  PreparedGraphCache prepared(8);
  QueryExecutor executor(ExecutorOptions{2, 16}, nullptr, &prepared);

  uint64_t certified = 0;
  for (int k : DatasetByName("dblp-s").k_range) {
    for (int delta = 1; delta <= 4; ++delta) {
      QueryRequest request;
      request.graph = graph;
      request.options = FullOptions(k, delta, ExtraBound::kColorfulPath);
      request.bypass_prepared_cache = delta % 2 == 0;
      ASSERT_TRUE(SeedAndLift(g, request.options).certified)
          << "k " << k << " delta " << delta;
      QueryResponse response = executor.Submit(request).get();
      ASSERT_TRUE(response.status.ok());
      EXPECT_EQ(executor.metrics().certified, ++certified);
      EXPECT_FALSE(response.prepared_hit);
      EXPECT_FALSE(response.deadline_missed);
      EXPECT_TRUE(response.result->stats.completed);
      EXPECT_TRUE(response.result->stats.reduction_stages.empty());
      EXPECT_EQ(response.result->stats.nodes, 0u);
      EXPECT_EQ(response.result->clique.size(),
                FindMaximumFairClique(g, BaselineOptions(k, delta))
                    .clique.size())
          << "k " << k << " delta " << delta;
      EXPECT_TRUE(VerifyFairClique(g, response.result->clique.vertices,
                                   request.options.params)
                      .ok());
    }
  }
  ExecutorMetrics m = executor.metrics();
  EXPECT_GT(m.certified, 0u);
  EXPECT_EQ(m.prepared_builds, 0u);
  EXPECT_EQ(m.prepared_hits, 0u);
  EXPECT_EQ(m.component_tasks, 0u);
  EXPECT_EQ(prepared.Stats().entries, 0u);
}

// themarker-s: the seed stays below the bound on every key, so each miss
// still prepares, at the lifted k'.
TEST(CertifiedSeedTest, ThemarkerNeverCertifiesAndPreparesAtTheLiftedK) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "g", LoadDataset("themarker-s", 1));
  const AttributedGraph& g = *graph->graph;
  PreparedGraphCache prepared(64);
  QueryExecutor executor(ExecutorOptions{2, 16}, nullptr, &prepared);

  for (int k : DatasetByName("themarker-s").k_range) {
    for (int delta = 1; delta <= 4; ++delta) {
      QueryRequest request;
      request.graph = graph;
      request.options = FullOptions(k, delta, ExtraBound::kColorfulPath);
      const LiftedSeed lifted = SeedAndLift(g, request.options);
      EXPECT_FALSE(lifted.certified) << "k " << k << " delta " << delta;
      EXPECT_GT(lifted.seed.upper_bound,
                static_cast<int64_t>(lifted.seed.clique.size()));
      QueryResponse response = executor.Submit(request).get();
      ASSERT_TRUE(response.status.ok());
      EXPECT_NE(prepared.Get(PreparedGraphCache::MakeKey(
                    graph->fingerprint, lifted.plan_k,
                    request.options.reductions)),
                nullptr)
          << "k " << k << " delta " << delta;
      EXPECT_EQ(response.result->clique.size(),
                FindMaximumFairClique(g, BaselineOptions(k, delta))
                    .clique.size())
          << "k " << k << " delta " << delta;
    }
  }
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.certified, 0u);
  EXPECT_GT(m.prepared_builds, 0u);
}

// ------------------------------------------------------- registry migration

TEST(PreparedCacheMigrationTest, RemovalOutsideReducedSetForwards) {
  AttributedGraph g = CoreAndFringeGraph();
  GraphRegistry registry;
  PreparedGraphCache prepared(8);
  registry.AttachPreparedCache(&prepared);
  ASSERT_TRUE(registry.Add("g", g).ok());
  uint64_t old_fp = registry.Get("g")->fingerprint;

  QueryExecutor executor(ExecutorOptions{1, 8}, nullptr, &prepared);
  QueryRequest request;
  request.graph = registry.Get("g");
  request.options = BaselineOptions(2, 0);
  ASSERT_TRUE(executor.Run(request).status.ok());
  ASSERT_EQ(prepared.Stats().entries, 1u);

  // Edge {10,11} lies entirely outside the reduced K6: removal-only and
  // untouched reduced subgraph -> the plan forwards to the new epoch.
  DynamicGraph dyn(g);
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({RemoveEdgeOp(10, 11)}, &summary).ok());
  ReplaceReport report;
  ASSERT_TRUE(registry.Replace("g", dyn.snapshot(), summary.version, &summary,
                               &report)
                  .ok());
  EXPECT_EQ(report.prepared.forwarded, 1u);
  EXPECT_EQ(report.prepared.invalidated, 0u);
  EXPECT_NE(summary.fingerprint, old_fp);
  EXPECT_NE(prepared.Get(PreparedGraphCache::MakeKey(
                summary.fingerprint, 2, request.options.reductions)),
            nullptr);

  // A query on the new epoch branches on the forwarded plan and still
  // matches a from-scratch search.
  request.graph = registry.Get("g");
  QueryResponse response = executor.Run(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.prepared_hit);
  SearchResult fresh =
      FindMaximumFairClique(*registry.Get("g")->graph, request.options);
  EXPECT_EQ(response.result->clique.size(), fresh.clique.size());
  EXPECT_TRUE(VerifyFairClique(*registry.Get("g")->graph,
                               response.result->clique.vertices,
                               request.options.params)
                  .ok());
}

TEST(PreparedCacheMigrationTest, TouchedReducedVertexInvalidates) {
  AttributedGraph g = CoreAndFringeGraph();
  GraphRegistry registry;
  PreparedGraphCache prepared(8);
  registry.AttachPreparedCache(&prepared);
  ASSERT_TRUE(registry.Add("g", g).ok());

  auto key_of = [&](uint64_t fp) {
    return PreparedGraphCache::MakeKey(fp, 2, ReductionOptions{});
  };
  prepared.Put(key_of(registry.Get("g")->fingerprint),
               PrepareGraph(g, 2, {}), registry.Get("g")->fingerprint);

  // Edge {0,1} is inside the reduced K6: its removal changes the reduced
  // subgraph, so the plan must die.
  DynamicGraph dyn(g);
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({RemoveEdgeOp(0, 1)}, &summary).ok());
  ReplaceReport report;
  ASSERT_TRUE(registry.Replace("g", dyn.snapshot(), summary.version, &summary,
                               &report)
                  .ok());
  EXPECT_EQ(report.prepared.forwarded, 0u);
  EXPECT_EQ(report.prepared.invalidated, 1u);
  EXPECT_EQ(prepared.Get(key_of(summary.fingerprint)), nullptr);
  EXPECT_EQ(prepared.Stats().entries, 0u);
}

TEST(PreparedCacheMigrationTest, AddedEdgeAndAttrFlipInvalidate) {
  AttributedGraph g = CoreAndFringeGraph();
  // Vertex 10 carries 'a'; setting it to 'b' is a real flip (a same-value
  // set would be a net no-op batch with an unchanged fingerprint).
  for (UpdateOp op : {AddEdgeOp(6, 9), SetAttributeOp(10, Attribute::kB)}) {
    GraphRegistry registry;
    PreparedGraphCache prepared(8);
    registry.AttachPreparedCache(&prepared);
    ASSERT_TRUE(registry.Add("g", g).ok());
    prepared.Put(
        PreparedGraphCache::MakeKey(registry.Get("g")->fingerprint, 2, {}),
        PrepareGraph(g, 2, {}), registry.Get("g")->fingerprint);

    DynamicGraph dyn(g);
    UpdateSummary summary;
    ASSERT_TRUE(dyn.Apply({op}, &summary).ok());
    ReplaceReport report;
    ASSERT_TRUE(registry.Replace("g", dyn.snapshot(), summary.version,
                                 &summary, &report)
                    .ok());
    // Even though the op touches only fringe vertices, additions and
    // attribute flips can rescue vertices into the colorful core, so no
    // forward is sound.
    EXPECT_EQ(report.prepared.forwarded, 0u);
    EXPECT_EQ(report.prepared.invalidated, 1u);
  }
}

TEST(PreparedCacheMigrationTest, AppendedIsolatedVerticesForward) {
  AttributedGraph g = CoreAndFringeGraph();
  GraphRegistry registry;
  PreparedGraphCache prepared(8);
  registry.AttachPreparedCache(&prepared);
  ASSERT_TRUE(registry.Add("g", g).ok());
  prepared.Put(
      PreparedGraphCache::MakeKey(registry.Get("g")->fingerprint, 2, {}),
      PrepareGraph(g, 2, {}), registry.Get("g")->fingerprint);

  DynamicGraph dyn(g);
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({AddVertexOp(Attribute::kA),
                         AddVertexOp(Attribute::kB)},
                        &summary)
                  .ok());
  ReplaceReport report;
  ASSERT_TRUE(registry.Replace("g", dyn.snapshot(), summary.version, &summary,
                               &report)
                  .ok());
  // Isolated vertices can never join a fair clique: the plan forwards, and
  // searching the grown graph with it stays exact.
  EXPECT_EQ(report.prepared.forwarded, 1u);
  auto plan = prepared.Get(
      PreparedGraphCache::MakeKey(summary.fingerprint, 2, {}));
  ASSERT_NE(plan, nullptr);
  SearchOptions options = BaselineOptions(2, 0);
  SearchResult staged =
      SearchPreparedGraph(*registry.Get("g")->graph, *plan, options);
  SearchResult fresh =
      FindMaximumFairClique(*registry.Get("g")->graph, options);
  EXPECT_EQ(staged.clique.size(), fresh.clique.size());
}

TEST(PreparedCacheMigrationTest, EvictDropsOrphanedPlans) {
  GraphRegistry registry;
  PreparedGraphCache prepared(8);
  registry.AttachPreparedCache(&prepared);
  AttributedGraph g = RandomAttributedGraph(40, 0.25, 0x90);
  ASSERT_TRUE(registry.Add("one", g).ok());
  ASSERT_TRUE(registry.Add("two", g).ok());  // same fingerprint
  prepared.Put(
      PreparedGraphCache::MakeKey(registry.Get("one")->fingerprint, 2, {}),
      PrepareGraph(g, 2, {}), registry.Get("one")->fingerprint);

  // Another name still serves the fingerprint: the plan survives.
  ASSERT_TRUE(registry.Evict("one"));
  EXPECT_EQ(prepared.Stats().entries, 1u);
  // Evicting the last reference drops it.
  ASSERT_TRUE(registry.Evict("two"));
  EXPECT_EQ(prepared.Stats().entries, 0u);
  EXPECT_EQ(prepared.Stats().invalidated, 1u);
}

// --------------------------------------------- component-granular scheduling

// A graph with many mid-size components, each containing a planted balanced
// clique, so queued queries fan out into real component tasks.
AttributedGraph ManyComponentGraph(uint64_t seed, int components) {
  Rng rng(seed);
  GraphBuilder builder(static_cast<VertexId>(components * 25));
  for (int c = 0; c < components; ++c) {
    VertexId base = static_cast<VertexId>(c * 25);
    for (VertexId u = 0; u < 25; ++u) {
      for (VertexId v = u + 1; v < 25; ++v) {
        if (rng.NextBool(0.2)) builder.AddEdge(base + u, base + v);
      }
    }
    uint32_t size = static_cast<uint32_t>(rng.NextInRange(6, 10));
    std::vector<uint64_t> members = rng.SampleDistinct(25, size);
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        builder.AddEdge(base + static_cast<VertexId>(members[i]),
                        base + static_cast<VertexId>(members[j]));
      }
    }
    for (VertexId u = 0; u < 25; ++u) {
      builder.SetAttribute(base + u,
                           rng.NextBool(0.5) ? Attribute::kA : Attribute::kB);
    }
  }
  return builder.Build();
}

// The acceptance stress test: many concurrent queries over multiple graphs,
// all expanded into component tasks on one shared pool, must match the
// sequential answers exactly (run under ASan/UBSan in CI).
TEST(ComponentSchedulingStressTest, ConcurrentMultiQueryAnswersExact) {
  GraphRegistry registry;
  auto g1 = RegisterGraph(registry, "a", ManyComponentGraph(0xA11CE, 8));
  auto g2 = RegisterGraph(registry, "b", ManyComponentGraph(0xB0B, 6));
  std::vector<std::shared_ptr<const RegisteredGraph>> graphs = {g1, g2};

  // Same k across most of the mix so queries share prepared plans; one
  // k=3 entry exercises plan misses interleaved with hits.
  std::vector<SearchOptions> mix = {
      BaselineOptions(2, 0),
      BaselineOptions(2, 1),
      BoundedOptions(2, 2, ExtraBound::kColorfulPath),
      FullOptions(2, 3, ExtraBound::kColorfulDegeneracy),
      BoundedOptions(3, 1, ExtraBound::kColorfulPath),
  };
  std::vector<std::vector<size_t>> expected(graphs.size());
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (const SearchOptions& options : mix) {
      expected[gi].push_back(
          FindMaximumFairClique(*graphs[gi]->graph, options).clique.size());
    }
  }

  ResultCache cache(64);
  PreparedGraphCache prepared(16);
  QueryExecutor executor(ExecutorOptions{4, 2048}, &cache, &prepared);

  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 15;
  std::vector<std::thread> clients;
  std::vector<std::string> failures[kClients];
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::pair<size_t, size_t>,
                            std::future<QueryResponse>>> futures;
      for (int q = 0; q < kQueriesPerClient; ++q) {
        size_t gi = static_cast<size_t>(c + q) % graphs.size();
        size_t mi = static_cast<size_t>(c + 3 * q) % mix.size();
        QueryRequest request;
        request.graph = graphs[gi];
        request.options = mix[mi];
        // A third of the load bypasses the result cache so component tasks
        // keep flowing even once every answer is memoized.
        request.bypass_cache = (q % 3 == 0);
        futures.emplace_back(std::make_pair(gi, mi),
                             executor.Submit(std::move(request)));
      }
      for (auto& [key, future] : futures) {
        QueryResponse response = future.get();
        if (!response.status.ok()) {
          failures[c].push_back("rejected: " + response.status.ToString());
          continue;
        }
        size_t want = expected[key.first][key.second];
        if (response.result->clique.size() != want) {
          failures[c].push_back(
              "size mismatch: got " +
              std::to_string(response.result->clique.size()) + " want " +
              std::to_string(want));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (const std::string& failure : failures[c]) {
      ADD_FAILURE() << "client " << c << ": " << failure;
    }
  }

  executor.Drain();
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.served, static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(m.rejected, 0u);
  // The whole point: component tasks from many queries interleaved on the
  // shared pool, and plans were reused across the delta variations.
  EXPECT_GT(m.component_tasks, 0u);
  EXPECT_GT(m.prepared_hits, 0u);
  // Plans are keyed by (fingerprint, plan k). A query's plan k is its own
  // k on a plan hit, or its lifted k on a miss (the full preset lifts);
  // duplicate concurrent builds may add a few more build events, but the
  // cache holds at most one entry per possible key.
  std::set<std::pair<size_t, int>> plan_keys;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (const SearchOptions& options : mix) {
      plan_keys.insert({gi, options.params.k});
      plan_keys.insert({gi, SeedAndLift(*graphs[gi]->graph, options).plan_k});
    }
  }
  EXPECT_LE(prepared.Stats().entries, plan_keys.size());
}

// Shutdown with queries still queued and expanded: every future must be
// satisfied (the destructor drains), with no leaks or races under ASan.
TEST(ComponentSchedulingStressTest, ShutdownDrainsExpandedQueries) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "g", ManyComponentGraph(0xD00D, 10));
  std::vector<std::future<QueryResponse>> futures;
  {
    PreparedGraphCache prepared(4);
    QueryExecutor executor(ExecutorOptions{3, 128}, nullptr, &prepared);
    for (int i = 0; i < 24; ++i) {
      QueryRequest request;
      request.graph = graph;
      request.options = BaselineOptions(2, i % 4);
      futures.push_back(executor.Submit(std::move(request)));
    }
    // Destructor: shuts down, drains the queue and all component tasks.
  }
  size_t answered = 0;
  for (auto& f : futures) {
    QueryResponse response = f.get();
    if (response.status.ok()) {
      ++answered;
      EXPECT_NE(response.result, nullptr);
    }
  }
  EXPECT_EQ(answered, futures.size());
}

}  // namespace
}  // namespace fairclique
