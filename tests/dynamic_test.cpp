// Tests for the dynamic-graph subsystem (src/dynamic) and its service-layer
// integration: batched updates with atomic validation, epoch snapshots,
// incremental degree/attribute-degree maintenance, exact incremental
// re-query, warm starts, cache migration on Replace, and an
// update-while-querying stress test.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/max_fair_clique.h"
#include "core/verifier.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_search.h"
#include "graph/fingerprint.h"
#include "graph/generators.h"
#include "service/graph_registry.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

/// Fixture graph: a K4 fair clique {0,1,2,3} (attrs aabb) plus a path
/// 4-5-6-7 (attrs aabb). With k=2, delta=1 the unique maximum fair clique
/// is {0,1,2,3}.
AttributedGraph FixtureGraph() {
  return MakeGraph("aabbaabb", {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3},
                                {2, 3}, {4, 5}, {5, 6}, {6, 7}});
}

SearchOptions FixtureOptions() {
  return FullOptions(2, 1, ExtraBound::kColorfulPath);
}

// ------------------------------------------------------------ DynamicGraph

TEST(DynamicGraphTest, ApplyMaintainsSnapshotDegreesAndAttrCounts) {
  DynamicGraph dyn(FixtureGraph());
  EXPECT_EQ(dyn.version(), 0u);
  EXPECT_EQ(dyn.num_vertices(), 8u);
  EXPECT_EQ(dyn.num_edges(), 9u);

  UpdateSummary summary;
  std::vector<UpdateOp> batch = {AddEdgeOp(3, 4), RemoveEdgeOp(6, 7),
                                 SetAttributeOp(7, Attribute::kA)};
  ASSERT_TRUE(dyn.Apply(batch, &summary).ok());

  EXPECT_EQ(dyn.version(), 1u);
  EXPECT_EQ(summary.version, 1u);
  EXPECT_EQ(summary.edges_added, 1u);
  EXPECT_EQ(summary.edges_removed, 1u);
  EXPECT_EQ(summary.attributes_changed, 1u);
  EXPECT_FALSE(summary.insert_only());
  ASSERT_EQ(summary.added_edges.size(), 1u);
  EXPECT_EQ(summary.added_edges[0], (Edge{3, 4}));
  // touched = removal endpoints {6,7} + attr flip {7}.
  EXPECT_EQ(summary.touched, (std::vector<VertexId>{6, 7}));
  // affected additionally includes the added edge's endpoints.
  EXPECT_EQ(summary.affected, (std::vector<VertexId>{3, 4, 6, 7}));

  std::shared_ptr<const AttributedGraph> snap = dyn.snapshot();
  ASSERT_TRUE(snap->Validate().ok());
  EXPECT_TRUE(snap->HasEdge(3, 4));
  EXPECT_FALSE(snap->HasEdge(6, 7));
  EXPECT_EQ(snap->attribute(7), Attribute::kA);
  EXPECT_EQ(summary.fingerprint, GraphFingerprint(*snap));
  EXPECT_EQ(dyn.fingerprint(), summary.fingerprint);
  EXPECT_NE(summary.fingerprint, summary.base_fingerprint);

  // Incrementally maintained counters match the materialized snapshot.
  for (VertexId v = 0; v < snap->num_vertices(); ++v) {
    EXPECT_EQ(dyn.degree(v), snap->degree(v)) << "vertex " << v;
    AttrCounts expected;
    for (VertexId w : snap->neighbors(v)) expected[snap->attribute(w)]++;
    EXPECT_EQ(dyn.attr_neighbor_counts(v), expected) << "vertex " << v;
  }
}

TEST(DynamicGraphTest, AddVertexThenWireItUp) {
  DynamicGraph dyn(FixtureGraph());
  UpdateSummary summary;
  // New vertex 8 (attribute b), immediately connected inside the batch.
  std::vector<UpdateOp> batch = {AddVertexOp(Attribute::kB), AddEdgeOp(8, 0),
                                 AddEdgeOp(8, 1)};
  ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
  EXPECT_EQ(summary.vertices_added, 1u);
  EXPECT_EQ(summary.edges_added, 2u);
  EXPECT_TRUE(summary.insert_only());

  std::shared_ptr<const AttributedGraph> snap = dyn.snapshot();
  EXPECT_EQ(snap->num_vertices(), 9u);
  EXPECT_EQ(snap->attribute(8), Attribute::kB);
  EXPECT_TRUE(snap->HasEdge(8, 0));
  EXPECT_EQ(dyn.degree(8), 2u);
}

TEST(DynamicGraphTest, InvalidOpRejectsWholeBatch) {
  DynamicGraph dyn(FixtureGraph());
  uint64_t fp_before = dyn.fingerprint();

  // Second op is invalid (edge already exists) -> nothing applies.
  std::vector<UpdateOp> batch = {AddEdgeOp(0, 4), AddEdgeOp(1, 2)};
  Status status = dyn.Apply(batch);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("op #1"), std::string::npos);
  EXPECT_EQ(dyn.version(), 0u);
  EXPECT_EQ(dyn.fingerprint(), fp_before);
  EXPECT_FALSE(dyn.snapshot()->HasEdge(0, 4));

  // Other rejection paths.
  EXPECT_TRUE(dyn.Apply({AddEdgeOp(0, 0)}).IsInvalidArgument());
  EXPECT_TRUE(dyn.Apply({AddEdgeOp(0, 99)}).IsInvalidArgument());
  EXPECT_TRUE(dyn.Apply({RemoveEdgeOp(0, 4)}).IsInvalidArgument());
  EXPECT_TRUE(
      dyn.Apply({SetAttributeOp(99, Attribute::kA)}).IsInvalidArgument());
  EXPECT_EQ(dyn.version(), 0u);
}

TEST(DynamicGraphTest, SequentialSemanticsAndNetSummary) {
  DynamicGraph dyn(FixtureGraph());
  uint64_t fp_before = dyn.fingerprint();

  // Add then remove the same edge: legal sequentially, net no-op.
  UpdateSummary summary;
  std::vector<UpdateOp> batch = {AddEdgeOp(0, 7), RemoveEdgeOp(0, 7)};
  ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
  EXPECT_EQ(summary.edges_added, 0u);
  EXPECT_EQ(summary.edges_removed, 0u);
  EXPECT_TRUE(summary.added_edges.empty());
  EXPECT_EQ(dyn.version(), 1u);              // epoch still advances
  EXPECT_EQ(dyn.fingerprint(), fp_before);   // content identical

  // Remove then re-add an existing edge: also net no-op.
  ASSERT_TRUE(dyn.Apply({RemoveEdgeOp(0, 1), AddEdgeOp(0, 1)}, &summary)
                  .ok());
  EXPECT_EQ(summary.edges_added, 0u);
  EXPECT_EQ(summary.edges_removed, 0u);
  EXPECT_EQ(dyn.fingerprint(), fp_before);

  // Setting an attribute to its current value is not a change.
  ASSERT_TRUE(dyn.Apply({SetAttributeOp(0, Attribute::kA)}, &summary).ok());
  EXPECT_EQ(summary.attributes_changed, 0u);
  EXPECT_TRUE(summary.touched.empty());
}

TEST(DynamicGraphTest, SnapshotEquivalenceRandomized) {
  // Random update stream; after every epoch the materialized snapshot must
  // equal a from-scratch rebuild of the reference adjacency (fingerprint
  // equality == content equality here), and searches on both must agree.
  for (uint64_t seed : {1u, 7u, 42u}) {
    AttributedGraph base = RandomAttributedGraph(40, 0.12, seed);
    DynamicGraph dyn(base);

    std::set<Edge> reference(base.edges().begin(), base.edges().end());
    std::vector<Attribute> attrs;
    for (VertexId v = 0; v < base.num_vertices(); ++v) {
      attrs.push_back(base.attribute(v));
    }

    Rng rng(seed * 977 + 3);
    for (int epoch = 0; epoch < 5; ++epoch) {
      const VertexId n = static_cast<VertexId>(attrs.size());
      std::vector<UpdateOp> batch;
      for (int i = 0; i < 6; ++i) {
        VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (u == v) continue;
        Edge e = u < v ? Edge{u, v} : Edge{v, u};
        if (reference.count(e) > 0) {
          batch.push_back(RemoveEdgeOp(e.u, e.v));
          reference.erase(e);
        } else {
          batch.push_back(AddEdgeOp(e.u, e.v));
          reference.insert(e);
        }
      }
      VertexId flip = static_cast<VertexId>(rng.NextBounded(n));
      attrs[flip] = Other(attrs[flip]);
      batch.push_back(SetAttributeOp(flip, attrs[flip]));

      ASSERT_TRUE(dyn.Apply(batch).ok());
      std::shared_ptr<const AttributedGraph> snap = dyn.snapshot();
      ASSERT_TRUE(snap->Validate().ok());

      std::vector<Edge> edges(reference.begin(), reference.end());
      AttributedGraph rebuilt =
          BuildGraph(static_cast<VertexId>(attrs.size()), edges, attrs);
      ASSERT_EQ(GraphFingerprint(*snap), GraphFingerprint(rebuilt))
          << "seed " << seed << " epoch " << epoch;

      SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
      EXPECT_EQ(FindMaximumFairClique(*snap, options).clique.size(),
                FindMaximumFairClique(rebuilt, options).clique.size());
    }
  }
}

// ------------------------------------------------------ IncrementalRequery

TEST(IncrementalRequeryTest, MatchesFromScratchOnRandomInsertions) {
  for (uint64_t seed : {3u, 11u, 29u, 57u}) {
    AttributedGraph base = RandomAttributedGraph(50, 0.15, seed);
    SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
    SearchResult before = FindMaximumFairClique(base, options);

    DynamicGraph dyn(base);
    Rng rng(seed + 1000);
    std::vector<UpdateOp> batch;
    for (const Edge& e : SampleNonEdges(base, 8, rng)) {
      batch.push_back(AddEdgeOp(e.u, e.v));
    }
    UpdateSummary summary;
    ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
    ASSERT_TRUE(summary.insert_only());

    std::shared_ptr<const AttributedGraph> snap = dyn.snapshot();
    SearchResult incremental = IncrementalRequery(
        *snap, summary.added_edges, before.clique, options);
    SearchResult from_scratch = FindMaximumFairClique(*snap, options);

    EXPECT_EQ(incremental.clique.size(), from_scratch.clique.size())
        << "seed " << seed;
    if (!incremental.clique.vertices.empty()) {
      EXPECT_TRUE(VerifyFairClique(*snap, incremental.clique.vertices,
                                   options.params)
                      .ok());
    }
  }
}

TEST(IncrementalRequeryTest, EmptyBaseFindsFirstFairClique) {
  // No fair clique exists (a-a edge only), then an insertion creates one;
  // the empty cached answer plus the added edges is still an exact basis.
  AttributedGraph base = MakeGraph("aab", {{0, 1}});
  SearchOptions options = BaselineOptions(1, 0);
  SearchResult before = FindMaximumFairClique(base, options);
  ASSERT_TRUE(before.clique.empty());

  DynamicGraph dyn(base);
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(0, 2)}, &summary).ok());
  SearchResult incremental = IncrementalRequery(
      *dyn.snapshot(), summary.added_edges, before.clique, options);
  EXPECT_EQ(incremental.clique.size(), 2u);
}

// ---------------------------------------------------------------- WarmStart

TEST(WarmStartTest, PrimesIncumbentWithoutChangingAnswerSize) {
  AttributedGraph g = RandomAttributedGraph(60, 0.15, 5);
  SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  SearchResult cold = FindMaximumFairClique(g, options);

  SearchOptions warm = options;
  warm.warm_start = cold.clique.vertices;
  SearchResult warmed = FindMaximumFairClique(g, warm);
  EXPECT_EQ(warmed.clique.size(), cold.clique.size());
  EXPECT_TRUE(VerifyFairClique(g, warmed.clique.vertices, options.params).ok());

  // An invalid warm start (not a clique / bad ids) is ignored, not trusted.
  SearchOptions bogus = options;
  bogus.warm_start = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  SearchResult still_right = FindMaximumFairClique(g, bogus);
  EXPECT_EQ(still_right.clique.size(), cold.clique.size());
}

// ------------------------------------------------------- Registry::Replace

TEST(ReplaceTest, AtomicallyAdvancesVersions) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Add("g", FixtureGraph()).ok());
  std::shared_ptr<const RegisteredGraph> old_entry = registry.Get("g");
  EXPECT_EQ(old_entry->version, 0u);

  DynamicGraph dyn(FixtureGraph());
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(0, 4)}, &summary).ok());
  ASSERT_TRUE(
      registry.Replace("g", dyn.snapshot(), summary.version, &summary).ok());

  std::shared_ptr<const RegisteredGraph> new_entry = registry.Get("g");
  EXPECT_EQ(new_entry->version, 1u);
  EXPECT_EQ(new_entry->fingerprint, summary.fingerprint);
  EXPECT_TRUE(new_entry->graph->HasEdge(0, 4));
  // The old snapshot is untouched for in-flight queries.
  EXPECT_FALSE(old_entry->graph->HasEdge(0, 4));
  EXPECT_EQ(registry.size(), 1u);

  // Version must strictly advance; unknown names are NotFound.
  EXPECT_TRUE(registry.Replace("g", dyn.snapshot(), 1).IsInvalidArgument());
  EXPECT_TRUE(registry.Replace("absent", dyn.snapshot(), 2).IsNotFound());
}

// --------------------------------------------------------- cache migration

struct ServiceHarness {
  GraphRegistry registry;
  ResultCache cache{64};
  QueryExecutor executor{ExecutorOptions{1, 16}, &cache};

  ServiceHarness() { registry.AttachCache(&cache); }

  QueryResponse Query(const std::string& name, const SearchOptions& options) {
    QueryRequest request;
    request.graph = registry.Get(name);
    request.options = options;
    return executor.Run(request);
  }
};

TEST(CacheMigrationTest, InsertOnlyBatchServesIncrementalExactRequery) {
  ServiceHarness h;
  ASSERT_TRUE(h.registry.Add("g", FixtureGraph()).ok());
  SearchOptions options = FixtureOptions();

  QueryResponse first = h.Query("g", options);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.result->clique.size(), 4u);

  DynamicGraph dyn(FixtureGraph());
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(2, 4), AddEdgeOp(3, 4)}, &summary).ok());
  ReplaceReport report;
  ASSERT_TRUE(h.registry
                  .Replace("g", dyn.snapshot(), summary.version, &summary,
                           &report)
                  .ok());
  EXPECT_EQ(report.cache.hints, 1u);
  EXPECT_EQ(report.cache.invalidated, 0u);

  QueryResponse requery = h.Query("g", options);
  ASSERT_TRUE(requery.status.ok());
  EXPECT_TRUE(requery.incremental);
  EXPECT_FALSE(requery.cache_hit);
  EXPECT_EQ(requery.result->clique.size(),
            FindMaximumFairClique(*dyn.snapshot(), options).clique.size());

  // The incremental answer was cached as exact for the new fingerprint.
  QueryResponse repeat = h.Query("g", options);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(h.executor.metrics().incremental_requeries, 1u);
}

// A node budget that runs out inside a local search is reported as a node
// budget stop, by the re-query itself and by the executor serving it.
TEST(CacheMigrationTest, IncrementalRequeryReportsNodeLimitStop) {
  ServiceHarness h;
  ASSERT_TRUE(h.registry.Add("g", FixtureGraph()).ok());
  SearchOptions options = FixtureOptions();
  options.node_limit = 1;
  // The seed already spans the K4, so the first search branches nowhere.
  QueryResponse first = h.Query("g", options);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(first.result->stats.completed);

  // Vertex 4 joins the K4: each added edge's neighborhood is a K5, whose
  // search needs more than one branch node.
  DynamicGraph dyn(FixtureGraph());
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(0, 4), AddEdgeOp(1, 4), AddEdgeOp(2, 4),
                         AddEdgeOp(3, 4)},
                        &summary)
                  .ok());
  SearchResult direct = IncrementalRequery(*dyn.snapshot(), summary.added_edges,
                                           first.result->clique, options);
  EXPECT_FALSE(direct.stats.completed);
  EXPECT_EQ(direct.stats.stop_reason, StopReason::kNodeLimit);

  ASSERT_TRUE(
      h.registry.Replace("g", dyn.snapshot(), summary.version, &summary).ok());
  QueryResponse requery = h.Query("g", options);
  ASSERT_TRUE(requery.status.ok());
  EXPECT_TRUE(requery.incremental);
  EXPECT_TRUE(requery.deadline_missed);
  EXPECT_STREQ(requery.stop_reason, "node_limit");
  ExecutorMetrics metrics = h.executor.metrics();
  EXPECT_EQ(metrics.stopped_node_limit, 1u);
  EXPECT_EQ(metrics.stopped_time_limit, 0u);
  EXPECT_EQ(metrics.stopped_deadline, 0u);
}

TEST(CacheMigrationTest, RemovalTouchingCachedCliqueInvalidates) {
  ServiceHarness h;
  ASSERT_TRUE(h.registry.Add("g", FixtureGraph()).ok());
  SearchOptions options = FixtureOptions();
  ASSERT_TRUE(h.Query("g", options).status.ok());

  DynamicGraph dyn(FixtureGraph());
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({RemoveEdgeOp(0, 1)}, &summary).ok());
  ReplaceReport report;
  ASSERT_TRUE(h.registry
                  .Replace("g", dyn.snapshot(), summary.version, &summary,
                           &report)
                  .ok());
  EXPECT_EQ(report.cache.invalidated, 1u);
  EXPECT_EQ(report.cache.hints, 0u);
  EXPECT_EQ(report.cache.republished, 0u);

  QueryResponse requery = h.Query("g", options);
  ASSERT_TRUE(requery.status.ok());
  EXPECT_FALSE(requery.cache_hit);
  EXPECT_FALSE(requery.incremental);
  EXPECT_FALSE(requery.warm_start);
  EXPECT_EQ(requery.result->clique.size(),
            FindMaximumFairClique(*dyn.snapshot(), options).clique.size());
}

TEST(CacheMigrationTest, RemovalElsewhereRepublishesExactEntry) {
  ServiceHarness h;
  ASSERT_TRUE(h.registry.Add("g", FixtureGraph()).ok());
  SearchOptions options = FixtureOptions();
  ASSERT_TRUE(h.Query("g", options).status.ok());

  DynamicGraph dyn(FixtureGraph());
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({RemoveEdgeOp(5, 6)}, &summary).ok());
  ReplaceReport report;
  ASSERT_TRUE(h.registry
                  .Replace("g", dyn.snapshot(), summary.version, &summary,
                           &report)
                  .ok());
  EXPECT_EQ(report.cache.republished, 1u);

  // Straight cache hit under the new fingerprint, no search at all.
  QueryResponse requery = h.Query("g", options);
  EXPECT_TRUE(requery.cache_hit);
  EXPECT_EQ(requery.result->clique.size(), 4u);
}

TEST(CacheMigrationTest, AttributeFlipElsewhereDowngradesToWarmStart) {
  ServiceHarness h;
  ASSERT_TRUE(h.registry.Add("g", FixtureGraph()).ok());
  SearchOptions options = FixtureOptions();
  ASSERT_TRUE(h.Query("g", options).status.ok());

  DynamicGraph dyn(FixtureGraph());
  UpdateSummary summary;
  ASSERT_TRUE(
      dyn.Apply({SetAttributeOp(4, Attribute::kB)}, &summary).ok());
  ReplaceReport report;
  ASSERT_TRUE(h.registry
                  .Replace("g", dyn.snapshot(), summary.version, &summary,
                           &report)
                  .ok());
  EXPECT_EQ(report.cache.hints, 1u);

  QueryResponse requery = h.Query("g", options);
  ASSERT_TRUE(requery.status.ok());
  EXPECT_TRUE(requery.warm_start);
  EXPECT_FALSE(requery.incremental);
  EXPECT_EQ(requery.result->clique.size(),
            FindMaximumFairClique(*dyn.snapshot(), options).clique.size());
}

TEST(CacheMigrationTest, ChainedInsertBatchesAccumulateEdges) {
  ServiceHarness h;
  ASSERT_TRUE(h.registry.Add("g", FixtureGraph()).ok());
  SearchOptions options = FixtureOptions();
  ASSERT_TRUE(h.Query("g", options).status.ok());

  // Two insert-only epochs before the next query. Epoch 1 attaches vertex 4
  // to the whole K4, creating the new maximum {0,1,2,3,4} (counts (3,2),
  // fair for delta=1). Epoch 2 adds an unrelated edge whose neighborhood
  // cannot contain that clique — so the single incremental re-query is only
  // exact if the hint accumulated epoch 1's edges across the migration.
  DynamicGraph dyn(FixtureGraph());
  UpdateSummary s1, s2;
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(0, 4), AddEdgeOp(1, 4), AddEdgeOp(2, 4),
                         AddEdgeOp(3, 4)},
                        &s1)
                  .ok());
  ASSERT_TRUE(h.registry.Replace("g", dyn.snapshot(), s1.version, &s1).ok());
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(5, 7)}, &s2).ok());
  ASSERT_TRUE(h.registry.Replace("g", dyn.snapshot(), s2.version, &s2).ok());

  QueryResponse requery = h.Query("g", options);
  ASSERT_TRUE(requery.status.ok());
  EXPECT_TRUE(requery.incremental);
  SearchResult truth = FindMaximumFairClique(*dyn.snapshot(), options);
  EXPECT_EQ(truth.clique.size(), 5u);
  EXPECT_EQ(requery.result->clique.size(), 5u);
}

TEST(CacheMigrationTest, SkippedEpochSummaryFallsBackToInvalidation) {
  // Two Apply batches collapsed into one Replace: the summary describes
  // only the second batch's delta, so migrating with it could republish a
  // stale answer as exact. Replace must detect the base-fingerprint
  // mismatch and invalidate instead.
  ServiceHarness h;
  ASSERT_TRUE(h.registry.Add("g", FixtureGraph()).ok());
  SearchOptions options = FixtureOptions();
  ASSERT_TRUE(h.Query("g", options).status.ok());

  DynamicGraph dyn(FixtureGraph());
  UpdateSummary s1, s2;
  // Batch 1 creates the new maximum {0,1,2,3,4}; batch 2 is irrelevant.
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(0, 4), AddEdgeOp(1, 4), AddEdgeOp(2, 4),
                         AddEdgeOp(3, 4)},
                        &s1)
                  .ok());
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(5, 7)}, &s2).ok());
  ReplaceReport report;
  ASSERT_TRUE(
      h.registry.Replace("g", dyn.snapshot(), s2.version, &s2, &report).ok());
  EXPECT_EQ(report.cache.invalidated, 1u);
  EXPECT_EQ(report.cache.republished, 0u);
  EXPECT_EQ(report.cache.hints, 0u);

  // The re-query is cold but correct (size 5, not the stale 4).
  QueryResponse requery = h.Query("g", options);
  ASSERT_TRUE(requery.status.ok());
  EXPECT_FALSE(requery.cache_hit);
  EXPECT_FALSE(requery.incremental);
  EXPECT_FALSE(requery.warm_start);
  EXPECT_EQ(requery.result->clique.size(), 5u);
}

// ------------------------------------------------------------------ stress

TEST(DynamicStressTest, ConcurrentUpdatesAndQueriesStayExact) {
  AttributedGraph base = RandomAttributedGraph(120, 0.08, 17);
  GraphRegistry registry;
  ResultCache cache(64);
  registry.AttachCache(&cache);
  QueryExecutor executor(ExecutorOptions{3, 64}, &cache);
  ASSERT_TRUE(registry.Add("g", base).ok());

  SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  auto dyn = std::make_shared<DynamicGraph>(base);
  std::atomic<bool> failed{false};
  std::atomic<int> epochs_done{0};

  std::thread updater([&] {
    Rng rng(99);
    for (int epoch = 0; epoch < 10; ++epoch) {
      std::vector<UpdateOp> batch;
      for (const Edge& e : SampleNonEdges(*dyn->snapshot(), 3, rng)) {
        batch.push_back(AddEdgeOp(e.u, e.v));
      }
      UpdateSummary summary;
      if (!dyn->Apply(batch, &summary).ok() ||
          !registry.Replace("g", dyn->snapshot(), summary.version, &summary)
               .ok()) {
        failed = true;
        return;
      }
      epochs_done.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        std::shared_ptr<const RegisteredGraph> entry = registry.Get("g");
        QueryRequest request;
        request.graph = entry;
        request.options = options;
        QueryResponse response = executor.Run(request);
        if (!response.status.ok() || response.result == nullptr) {
          failed = true;
          return;
        }
        // The answer must be exact for the snapshot this query ran on.
        SearchResult truth = FindMaximumFairClique(*entry->graph, options);
        if (response.result->clique.size() != truth.clique.size() ||
            (!response.result->clique.vertices.empty() &&
             !VerifyFairClique(*entry->graph,
                               response.result->clique.vertices,
                               options.params)
                  .ok())) {
          failed = true;
          return;
        }
        (void)t;
      }
    });
  }

  updater.join();
  for (std::thread& q : queriers) q.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(epochs_done.load(), 10);
}

}  // namespace
}  // namespace fairclique
