#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/max_fair_clique.h"
#include "core/options_key.h"
#include "datasets/datasets.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "service/graph_registry.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "storage/fcg2.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------- fingerprint

TEST(FingerprintTest, InsertionOrderIndependent) {
  GraphBuilder b1(4), b2(4);
  b1.AddEdge(0, 1);
  b1.AddEdge(1, 2);
  b1.AddEdge(2, 3);
  b2.AddEdge(2, 3);
  b2.AddEdge(0, 1);
  b2.AddEdge(2, 1);  // same undirected edge, reversed
  b1.SetAttribute(0, Attribute::kB);
  b2.SetAttribute(0, Attribute::kB);
  EXPECT_EQ(GraphFingerprint(b1.Build()), GraphFingerprint(b2.Build()));
}

TEST(FingerprintTest, SensitiveToContent) {
  AttributedGraph base = MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}});
  AttributedGraph extra_edge = MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  AttributedGraph attr_flip = MakeGraph("babb", {{0, 1}, {1, 2}, {2, 3}});
  uint64_t fp = GraphFingerprint(base);
  EXPECT_NE(fp, GraphFingerprint(extra_edge));
  EXPECT_NE(fp, GraphFingerprint(attr_flip));
  EXPECT_EQ(FingerprintHex(fp).size(), 16u);
}

TEST(FingerprintTest, BinaryRoundTripPreservesFingerprint) {
  // FCG2 stores exact ids and attributes, so the reloaded graph is
  // bit-identical content and must fingerprint identically. (Text edge
  // lists may remap ids on load; the fingerprint is label-sensitive by
  // design, because results report vertex ids.)
  AttributedGraph g = RandomAttributedGraph(60, 0.15, 0xF00D);
  std::string bin_path = TempPath("fc_fp_graph.fcg2");
  ASSERT_TRUE(storage::SaveFcg2(g, bin_path).ok());
  AttributedGraph from_bin;
  ASSERT_TRUE(storage::LoadFcg2(bin_path, &from_bin).ok());
  EXPECT_EQ(GraphFingerprint(g), GraphFingerprint(from_bin));
  std::remove(bin_path.c_str());
}

// ---------------------------------------------------------------- options key

TEST(OptionsKeyTest, PresetsBuiltTwiceCollide) {
  EXPECT_EQ(CanonicalOptionsKey(BaselineOptions(3, 1)),
            CanonicalOptionsKey(BaselineOptions(3, 1)));
  EXPECT_EQ(CanonicalOptionsKey(BoundedOptions(3, 1, ExtraBound::kColorfulPath)),
            CanonicalOptionsKey(BoundedOptions(3, 1, ExtraBound::kColorfulPath)));
  EXPECT_EQ(CanonicalOptionsKey(FullOptions(2, 2, ExtraBound::kHIndex)),
            CanonicalOptionsKey(FullOptions(2, 2, ExtraBound::kHIndex)));
}

TEST(OptionsKeyTest, HandRolledOptionsEqualToPresetCollide) {
  // BoundedOptions is BaselineOptions + advanced bounds; building the same
  // struct by hand must produce the same key.
  SearchOptions by_hand = BaselineOptions(3, 1);
  by_hand.bounds = {.use_advanced = true, .extra = ExtraBound::kColorfulPath};
  EXPECT_EQ(CanonicalOptionsKey(by_hand),
            CanonicalOptionsKey(BoundedOptions(3, 1, ExtraBound::kColorfulPath)));
}

TEST(OptionsKeyTest, AnswerIrrelevantFieldsCanonicalizedAway) {
  SearchOptions base = FullOptions(3, 1, ExtraBound::kColorfulPath);
  SearchOptions bitset = base;
  bitset.engine = SearchEngine::kBitset;
  SearchOptions vec = base;
  vec.engine = SearchEngine::kVector;
  EXPECT_EQ(CanonicalOptionsKey(base), CanonicalOptionsKey(bitset));
  EXPECT_EQ(CanonicalOptionsKey(base), CanonicalOptionsKey(vec));
}

TEST(OptionsKeyTest, SemanticFieldsDistinguish) {
  SearchOptions base = FullOptions(3, 1, ExtraBound::kColorfulPath);
  std::vector<SearchOptions> variants(7, base);
  variants[0].params.k = 4;
  variants[1].params.delta = 2;
  variants[2].bounds.extra = ExtraBound::kNone;
  variants[3].use_heuristic = false;
  variants[4].reductions.use_colorful_sup = false;
  variants[5].node_limit = 1000;
  variants[6].time_limit_seconds = 1.5;
  std::string base_key = CanonicalOptionsKey(base);
  for (const SearchOptions& v : variants) {
    EXPECT_NE(base_key, CanonicalOptionsKey(v));
  }
}

// ------------------------------------------------------------------ registry

TEST(GraphRegistryTest, AddGetEvictLifecycle) {
  GraphRegistry registry;
  AttributedGraph g = MakeGraph("aabb", {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  uint64_t fp = GraphFingerprint(g);
  ASSERT_TRUE(registry.Add("g", std::move(g)).ok());
  EXPECT_EQ(registry.size(), 1u);

  auto entry = registry.Get("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->fingerprint, fp);
  EXPECT_EQ(entry->graph->num_vertices(), 4u);
  EXPECT_EQ(registry.Get("missing"), nullptr);

  EXPECT_TRUE(registry.Evict("g"));
  EXPECT_FALSE(registry.Evict("g"));
  EXPECT_EQ(registry.Get("g"), nullptr);
  // The handed-out entry outlives eviction.
  EXPECT_EQ(entry->graph->num_vertices(), 4u);
}

TEST(GraphRegistryTest, DoubleLoadRejectedUntilEvicted) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Add("g", MakeGraph("ab", {{0, 1}})).ok());
  Status dup = registry.Add("g", MakeGraph("ab", {{0, 1}}));
  EXPECT_TRUE(dup.IsInvalidArgument());
  EXPECT_TRUE(registry.Evict("g"));
  EXPECT_TRUE(registry.Add("g", MakeGraph("ab", {{0, 1}})).ok());
}

TEST(GraphRegistryTest, LoadsTextAndBinaryWithAutoDetection) {
  AttributedGraph g = RandomAttributedGraph(40, 0.2, 0xBEEF);
  std::string edge_path = TempPath("fc_reg_edges.txt");
  std::string attr_path = TempPath("fc_reg_attrs.txt");
  std::string bin_path = TempPath("fc_reg_graph.fcg2");
  ASSERT_TRUE(SaveEdgeList(g, edge_path).ok());
  ASSERT_TRUE(SaveAttributes(g, attr_path).ok());
  ASSERT_TRUE(storage::SaveFcg2(g, bin_path).ok());

  GraphRegistry registry;
  ASSERT_TRUE(registry.Load("text", edge_path, attr_path).ok());
  ASSERT_TRUE(registry.Load("text2", edge_path, attr_path).ok());
  ASSERT_TRUE(registry.Load("bin", bin_path).ok());
  EXPECT_TRUE(registry.Load("missing", TempPath("fc_reg_nope.txt"))
                  .IsIOError());

  // Binary loads preserve ids exactly; text loads are deterministic, so
  // re-registering the same files under another name shares the
  // fingerprint (and hence cached results).
  EXPECT_EQ(registry.Get("bin")->fingerprint, GraphFingerprint(g));
  EXPECT_EQ(registry.Get("text")->fingerprint,
            registry.Get("text2")->fingerprint);
  EXPECT_EQ(registry.Get("text")->graph->num_edges(), g.num_edges());

  auto listed = registry.List();
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0]->name, "bin");
  EXPECT_EQ(listed[1]->name, "text");
  EXPECT_EQ(listed[2]->name, "text2");
  std::remove(edge_path.c_str());
  std::remove(attr_path.c_str());
  std::remove(bin_path.c_str());
}

// --------------------------------------------------------------------- cache

std::shared_ptr<const SearchResult> FakeResult(size_t clique_size) {
  auto r = std::make_shared<SearchResult>();
  r->clique.vertices.resize(clique_size);
  return r;
}

TEST(ResultCacheTest, LruEvictionOrderAndCounters) {
  ResultCache cache(2);
  cache.Put("a", FakeResult(1));
  cache.Put("b", FakeResult(2));
  ASSERT_NE(cache.Get("a"), nullptr);  // refreshes "a"; "b" is now LRU
  cache.Put("c", FakeResult(3));       // evicts "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  ASSERT_NE(cache.Get("c"), nullptr);

  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);

  cache.Clear();
  stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.Put("a", FakeResult(1));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Stats().insertions, 0u);
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST(ResultCacheTest, EquivalentOptionsShareOneEntry) {
  // The canonicalization promise end to end: a key built from a bitset
  // query finds the entry stored by a default-engine query.
  ResultCache cache(8);
  SearchOptions stored = FullOptions(3, 1, ExtraBound::kColorfulPath);
  cache.Put(ResultCache::MakeKey(42, stored), FakeResult(7));

  SearchOptions probe = FullOptions(3, 1, ExtraBound::kColorfulPath);
  probe.engine = SearchEngine::kBitset;
  auto hit = cache.Get(ResultCache::MakeKey(42, probe));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->clique.size(), 7u);

  // Different fingerprint or different semantics -> different entry.
  EXPECT_EQ(cache.Get(ResultCache::MakeKey(43, probe)), nullptr);
  EXPECT_EQ(cache.Get(ResultCache::MakeKey(42, BaselineOptions(3, 1))),
            nullptr);
}

// ------------------------------------------------------------------ executor

std::shared_ptr<const RegisteredGraph> RegisterGraph(GraphRegistry& registry,
                                                     const std::string& name,
                                                     AttributedGraph g) {
  EXPECT_TRUE(registry.Add(name, std::move(g)).ok());
  return registry.Get(name);
}

TEST(QueryExecutorTest, ServesAndCachesQueries) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "g", RandomAttributedGraph(120, 0.12, 0xCAFE));
  ResultCache cache(16);
  QueryExecutor executor(ExecutorOptions{2, 32}, &cache);

  QueryRequest request;
  request.graph = graph;
  request.options = FullOptions(2, 2, ExtraBound::kColorfulPath);

  QueryResponse cold = executor.Submit(request).get();
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  QueryResponse warm = executor.Submit(request).get();
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  // A hit returns the identical result object, not a copy.
  EXPECT_EQ(warm.result.get(), cold.result.get());

  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.served, 2u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.rejected, 0u);
}

TEST(QueryExecutorTest, RejectsWhenQueueDisabled) {
  // queue_capacity = 0 deterministically exercises the backpressure path.
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "g", MakeGraph("ab", {{0, 1}}));
  QueryExecutor executor(ExecutorOptions{1, 0}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 0);
  QueryResponse response = executor.Submit(request).get();
  EXPECT_TRUE(response.status.IsAborted());
  EXPECT_EQ(response.result, nullptr);
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.accepted, 0u);
}

TEST(QueryExecutorTest, InvalidRequestReported) {
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);
  QueryResponse response = executor.Submit(QueryRequest{}).get();
  EXPECT_TRUE(response.status.IsInvalidArgument());
}

TEST(QueryExecutorTest, DeadlineMapsOntoSafetyValveAndSkipsCache) {
  // A dense 150-vertex graph with k=1, delta large is a hard max-clique
  // instance; a 50 ms budget (comfortably longer than the idle-queue wait
  // even under sanitizer slowdowns, far shorter than the search) reliably
  // truncates mid-search.
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x5EED));
  ResultCache cache(16);
  QueryExecutor executor(ExecutorOptions{1, 8}, &cache);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 100);
  request.deadline_seconds = 5e-2;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.deadline_missed);
  EXPECT_FALSE(response.result->stats.completed);
  // Truncated results must not be cached: a repeat of the same request may
  // not hit (it would replay the truncation to a future looser deadline).
  EXPECT_EQ(cache.Stats().insertions, 0u);
  EXPECT_EQ(executor.metrics().deadline_misses, 1u);
}

TEST(QueryExecutorTest, DeadlineAnchoredAtSubmitExpiresQueuedRequests) {
  // The deadline clock starts at Submit, so a request that burned its whole
  // budget waiting behind another query is expired when popped — no search,
  // no cache probe, null result — instead of being granted a fresh budget
  // at admission (the old bug: a 100 ms client could wait seconds in the
  // queue and still get 100 ms of compute afterwards).
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x5EED));
  ResultCache cache(16);
  QueryExecutor executor(ExecutorOptions{1, 8}, &cache);

  // Blocker: occupies the single worker for ~its own deadline (100 ms).
  QueryRequest blocker;
  blocker.graph = graph;
  blocker.options = BaselineOptions(1, 100);
  blocker.deadline_seconds = 0.1;
  std::future<QueryResponse> blocked = executor.Submit(blocker);

  // Probe: a 1 µs budget cannot survive a ~100 ms queue wait.
  QueryRequest probe;
  probe.graph = graph;
  probe.options = BaselineOptions(1, 100);
  probe.deadline_seconds = 1e-6;
  QueryResponse response = executor.Submit(probe).get();
  EXPECT_TRUE(response.status.IsAborted());
  EXPECT_TRUE(response.deadline_missed);
  EXPECT_EQ(response.result, nullptr);
  QueryResponse blocker_response = blocked.get();
  EXPECT_TRUE(blocker_response.deadline_missed);
  // Both the blocker and the expired probe count as misses; the expired
  // probe must not have touched the cache. (On a machine slow enough that
  // even the BLOCKER expired in-queue — sanitizer runs — it never probed
  // the cache either, so only assert the blocker's miss when it ran.)
  EXPECT_EQ(executor.metrics().deadline_misses, 2u);
  EXPECT_EQ(cache.Stats().insertions, 0u);
  if (blocker_response.result != nullptr) {
    EXPECT_EQ(cache.Stats().misses, 1u);  // only the blocker probed
  }
}

TEST(QueryExecutorTest, QueueDepthCountsComponentTasks) {
  // Saturation must be visible even when it lives entirely in the component
  // queue: a disconnected graph expands one query into several Branch
  // tasks, and the combined depth (and its peak) must count them.
  AttributedGraph block = RandomAttributedGraph(25, 0.2, 0xB10C);
  std::vector<Edge> edges;
  std::vector<Attribute> attrs;
  const int kBlocks = 3;
  for (int b = 0; b < kBlocks; ++b) {
    VertexId offset = static_cast<VertexId>(b) * block.num_vertices();
    for (const Edge& e : block.edges()) {
      edges.push_back(Edge{e.u + offset, e.v + offset});
    }
    for (VertexId v = 0; v < block.num_vertices(); ++v) {
      attrs.push_back(block.attribute(v));
    }
  }
  AttributedGraph g = BuildGraph(
      static_cast<VertexId>(kBlocks * block.num_vertices()), edges, attrs);

  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "blocks", std::move(g));
  QueryExecutor executor(ExecutorOptions{1, 8}, nullptr);
  QueryRequest request;
  request.graph = graph;
  // Baseline: no reductions, so the prepared components are exactly the
  // three 25-vertex blocks and selection keeps them all.
  request.options = BaselineOptions(1, 2);
  ASSERT_TRUE(executor.Submit(request).get().status.ok());
  executor.Drain();

  ExecutorMetrics m = executor.metrics();
  // All three identical blocks survive selection; their tasks were pushed
  // (and the peak bumped) under one lock hold before the single worker
  // could pop any, so the combined peak must count every one of them.
  EXPECT_GE(m.component_tasks, 2u);
  EXPECT_GE(m.peak_queue_depth, m.component_tasks);
  EXPECT_EQ(m.admission_queue_depth, 0u);
  EXPECT_EQ(m.component_queue_depth, 0u);
  EXPECT_EQ(m.queue_depth, 0u);
}

TEST(QueryExecutorTest, DrainWaitsForAllAccepted) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "g", RandomAttributedGraph(100, 0.15, 0xD1CE));
  ResultCache cache(16);
  QueryExecutor executor(ExecutorOptions{2, 64}, &cache);

  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    QueryRequest request;
    request.graph = graph;
    request.options = BaselineOptions(2, 2);
    request.bypass_cache = true;
    futures.push_back(executor.Submit(std::move(request)));
  }
  executor.Drain();
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.served, m.accepted);
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
}

// -------------------------------------------------------- concurrent clients

TEST(ServiceStressTest, ConcurrentClientsMatchSequentialAnswers) {
  GraphRegistry registry;
  auto g1 = RegisterGraph(registry, "dblp",
                          LoadDataset("dblp-s", /*scale=*/0.5));
  auto g2 = RegisterGraph(registry, "rand",
                          RandomAttributedGraph(200, 0.1, 0xFA18));
  std::vector<std::shared_ptr<const RegisteredGraph>> graphs = {g1, g2};

  std::vector<SearchOptions> mix = {
      BaselineOptions(2, 2),
      BoundedOptions(3, 1, ExtraBound::kColorfulPath),
      FullOptions(2, 3, ExtraBound::kColorfulDegeneracy),
      FullOptions(3, 2, ExtraBound::kColorfulPath),
  };

  // Sequential ground truth per (graph, options).
  std::vector<std::vector<size_t>> expected(graphs.size());
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (const SearchOptions& options : mix) {
      expected[gi].push_back(
          FindMaximumFairClique(*graphs[gi]->graph, options).clique.size());
    }
  }

  ResultCache cache(64);
  QueryExecutor executor(ExecutorOptions{4, 1024}, &cache);

  // 4 client threads x 12 queries each, striding through the mix so cache
  // hits and misses interleave.
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 12;
  std::vector<std::thread> clients;
  std::vector<std::string> failures[kClients];
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::pair<size_t, size_t>,
                            std::future<QueryResponse>>> futures;
      for (int q = 0; q < kQueriesPerClient; ++q) {
        size_t gi = static_cast<size_t>(c + q) % graphs.size();
        size_t mi = static_cast<size_t>(q) % mix.size();
        QueryRequest request;
        request.graph = graphs[gi];
        request.options = mix[mi];
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

  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.served, static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(m.rejected, 0u);
  // 8 distinct (graph, options) pairs -> at most 8 misses can be cold; with
  // 48 queries the cache must have been hit. (Concurrent duplicate misses
  // may compute redundantly, so we can't assert an exact count.)
  EXPECT_GT(m.cache_hits, 0u);
  EXPECT_LE(cache.Stats().entries, 8u);
}

TEST(RegistryCacheTest, EvictDropsOrphanedCacheEntries) {
  // Regression: Evict used to leave the evicted graph's cached results in
  // the ResultCache until LRU pressure pushed them out. With an attached
  // cache they must be dropped as soon as no registered name references the
  // fingerprint.
  GraphRegistry registry;
  ResultCache cache(16);
  registry.AttachCache(&cache);
  QueryExecutor executor(ExecutorOptions{1, 8}, &cache);

  AttributedGraph g = RandomAttributedGraph(30, 0.3, 77);
  ASSERT_TRUE(registry.Add("g", g).ok());
  QueryRequest request;
  request.graph = registry.Get("g");
  request.options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  ASSERT_TRUE(executor.Run(request).status.ok());
  EXPECT_EQ(cache.Stats().entries, 1u);

  ASSERT_TRUE(registry.Evict("g"));
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidated, 1u);

  // Re-registering the same content must now miss (cold) again.
  ASSERT_TRUE(registry.Add("g2", g).ok());
  request.graph = registry.Get("g2");
  QueryResponse response = executor.Run(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.cache_hit);
}

TEST(RegistryCacheTest, EvictKeepsEntriesSharedByAnotherName) {
  GraphRegistry registry;
  ResultCache cache(16);
  registry.AttachCache(&cache);
  QueryExecutor executor(ExecutorOptions{1, 8}, &cache);

  AttributedGraph g = RandomAttributedGraph(30, 0.3, 78);
  ASSERT_TRUE(registry.Add("one", g).ok());
  ASSERT_TRUE(registry.Add("two", g).ok());  // same content, same fingerprint

  QueryRequest request;
  request.graph = registry.Get("one");
  request.options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  ASSERT_TRUE(executor.Run(request).status.ok());

  // "two" still serves this fingerprint: the entry must survive the evict.
  ASSERT_TRUE(registry.Evict("one"));
  EXPECT_EQ(cache.Stats().entries, 1u);
  request.graph = registry.Get("two");
  EXPECT_TRUE(executor.Run(request).cache_hit);

  // Evicting the last reference drops it.
  ASSERT_TRUE(registry.Evict("two"));
  EXPECT_EQ(cache.Stats().entries, 0u);
}

}  // namespace
}  // namespace fairclique
