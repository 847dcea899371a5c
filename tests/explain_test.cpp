#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/max_fair_clique.h"
#include "core/prepared_graph.h"
#include "datasets/datasets.h"
#include "service/graph_registry.h"
#include "service/prepared_graph_cache.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

// Every integer value of `key` in document order. The needle includes the
// opening quote, so e.g. "search_micros" does not also match
// "component_search_micros".
std::vector<long long> ExtractAll(const std::string& json,
                                  const std::string& key) {
  std::vector<long long> out;
  const std::string needle = "\"" + key + "\":";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::stoll(json.substr(pos)));
  }
  return out;
}

long long Sum(const std::vector<long long>& v, size_t drop_last = 0) {
  return std::accumulate(v.begin(), v.end() - drop_last, 0LL);
}

// Two disjoint fair cliques of different sizes: vertices 0-5 ("aabbab") and
// 6-9 ("abab"). Decomposes into two prepared components, so plans have a
// real component table.
AttributedGraph TwoComponentGraph() {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 6; ++i)
    for (int j = i + 1; j < 6; ++j) edges.push_back({i, j});
  for (int i = 6; i < 10; ++i)
    for (int j = i + 1; j < 10; ++j) edges.push_back({i, j});
  return MakeGraph("aabbabab" "ab", edges);
}

std::shared_ptr<const RegisteredGraph> RegisterGraph(GraphRegistry& registry,
                                                     const std::string& name,
                                                     AttributedGraph g) {
  EXPECT_TRUE(registry.Add(name, std::move(g)).ok());
  return registry.Get(name);
}

TEST(ExplainTest, PreparedHitPlanCarriesEverySection) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "two", TwoComponentGraph());
  ResultCache cache(16);
  PreparedGraphCache prepared_cache(4);
  QueryExecutor executor(ExecutorOptions{1, 4}, &cache, &prepared_cache);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 2);
  request.options.engine = SearchEngine::kBitset;
  ASSERT_TRUE(executor.Submit(request).get().status.ok());  // builds the plan

  // Another delta misses the result cache but reuses the prepared plan.
  request.options.params.delta = 1;
  request.options.node_limit = 1;
  request.explain = true;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  ASSERT_TRUE(response.prepared_hit);
  const std::string& json = response.plan_json;
  EXPECT_NE(json.find("\"prepare\":{\"prepared_hit\":true,\"prepare_micros\":0,"
                      "\"source_vertices\":10,\"source_edges\":21,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stages\":[{\"name\":\"EnColorfulCore\","
                      "\"vertices_left\":10,\"edges_left\":21,\"micros\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"result_cache\":{\"probed\":true,\"hit\":false}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"seed_size\":0,\"upper_bound\":0,"
                      "\"certified\":false}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"engine\":\"bitset\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\":false,\"stop_reason\":\"node_limit\"}"),
            std::string::npos)
      << json;
}

// Two disjoint 6-cliques, each with three vertices of either attribute.
// With `unfair_clique`, a third component: a 7-clique of a-vertices only.
// It holds no fair clique, but it keeps HeurRFC's color bound at 7, above
// the 6-clique seed, so the seed is not certified and the query prepares.
AttributedGraph TwinCliqueGraph(bool unfair_clique = false) {
  std::vector<std::pair<int, int>> edges;
  for (int base : {0, 6}) {
    for (int i = base; i < base + 6; ++i)
      for (int j = i + 1; j < base + 6; ++j) edges.push_back({i, j});
  }
  if (!unfair_clique) return MakeGraph("ababab" "ababab", edges);
  for (int i = 12; i < 19; ++i)
    for (int j = i + 1; j < 19; ++j) edges.push_back({i, j});
  return MakeGraph("ababab" "ababab" "aaaaaaa", edges);
}

TEST(ExplainTest, UnsearchedComponentsCarryNoStats) {
  // HeurRFC seeds one 6-clique against a bound of 7. A larger fair clique
  // needs at least ceil((6 + 1 - 2) / 2) = 3 of each attribute, so the plan
  // is prepared at k = 3; both fair cliques survive it, and neither can
  // beat the seed, so neither is searched.
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "twins", TwinCliqueGraph(true));
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = FullOptions(1, 2, ExtraBound::kColorfulPath);
  request.explain = true;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.result->clique.size(), 6u);
  const std::string& json = response.plan_json;
  EXPECT_NE(json.find("\"seed_size\":6,\"upper_bound\":7,"
                      "\"certified\":false}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"index\":1,\"vertices\":6,\"edges\":15,"
                      "\"searched\":false}"),
            std::string::npos)
      << json;
  // Neither component can beat the seed, so no row names an engine.
  EXPECT_EQ(json.find("\"engine\""), std::string::npos) << json;
  EXPECT_EQ(executor.metrics().certified, 0u);
}

TEST(ExplainTest, CertifiedSeedShowsNoStagesAndNoComponents) {
  // Without the unfair clique the bound is 6: the seed is a maximum clique,
  // so the query answers it without a reduction or a component, and
  // publishes no plan.
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "twins", TwinCliqueGraph());
  PreparedGraphCache prepared_cache(4);
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr, &prepared_cache);

  QueryRequest request;
  request.graph = graph;
  request.options = FullOptions(1, 2, ExtraBound::kColorfulPath);
  request.explain = true;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.result->clique.size(), 6u);
  EXPECT_TRUE(response.result->stats.completed);
  EXPECT_FALSE(response.deadline_missed);
  const std::string& json = response.plan_json;
  EXPECT_NE(json.find("\"prepare\":{\"prepared_hit\":false,"
                      "\"prepare_micros\":0,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stages\":[]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"components\":[]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lifted_k\":3,\"seed_source\":\"heuristic\","),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"seed_size\":6,\"upper_bound\":6,"
                      "\"certified\":true}"),
            std::string::npos)
      << json;
  EXPECT_EQ(prepared_cache.Stats().entries, 0u);
  const ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.certified, 1u);
  EXPECT_EQ(m.prepared_builds, 0u);
  EXPECT_EQ(m.component_tasks, 0u);
}

// The seed object names the plan's k, where the seed came from and what
// seeding cost: on a plan miss the k is lifted past the request's, on a
// plan hit it is the request's own.
TEST(ExplainTest, SeedReportsLiftedKSourceAndTime) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "twins", TwinCliqueGraph(true));
  PreparedGraphCache prepared_cache(4);
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr, &prepared_cache);

  QueryRequest request;
  request.graph = graph;
  request.options = FullOptions(1, 2, ExtraBound::kColorfulPath);
  request.explain = true;
  QueryResponse miss = executor.Run(request);
  ASSERT_TRUE(miss.status.ok());
  ASSERT_FALSE(miss.prepared_hit);
  EXPECT_NE(miss.plan_json.find("\"lifted_k\":3,\"seed_source\":"
                                "\"heuristic\",\"seed_micros\":"),
            std::string::npos)
      << miss.plan_json;
  const std::vector<long long> heuristic =
      ExtractAll(miss.plan_json, "heuristic_micros");
  const std::vector<long long> seed = ExtractAll(miss.plan_json, "seed_micros");
  ASSERT_EQ(heuristic.size(), 1u);
  ASSERT_EQ(seed.size(), 1u);
  EXPECT_GE(seed[0], heuristic[0]);

  // A warm start larger than any heuristic seed lifts the baseline preset,
  // which runs no heuristic; the lifted plan is the one just published.
  request.options = BaselineOptions(1, 2);
  request.options.warm_start = {6, 7, 8, 9, 10, 11};
  QueryResponse warm = executor.Run(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.prepared_hit);
  EXPECT_NE(warm.plan_json.find("\"lifted_k\":3,\"seed_source\":"
                                "\"warm_start\",\"seed_micros\":"),
            std::string::npos)
      << warm.plan_json;
  EXPECT_EQ(ExtractAll(warm.plan_json, "seed_micros").size(), 1u);

  // Without a seed the plan is prepared at the request's k; the next query
  // at that k hits it and seeds on the plan without lifting.
  request.options = BaselineOptions(1, 2);
  QueryResponse unseeded = executor.Run(request);
  ASSERT_TRUE(unseeded.status.ok());
  ASSERT_FALSE(unseeded.prepared_hit);
  EXPECT_NE(unseeded.plan_json.find("\"lifted_k\":1,\"seed_source\":"
                                    "\"none\",\"seed_micros\":"),
            std::string::npos)
      << unseeded.plan_json;
  request.options = FullOptions(1, 2, ExtraBound::kColorfulPath);
  QueryResponse hit = executor.Run(request);
  ASSERT_TRUE(hit.status.ok());
  ASSERT_TRUE(hit.prepared_hit);
  EXPECT_NE(hit.plan_json.find("\"lifted_k\":1,\"seed_source\":"
                               "\"heuristic\",\"seed_micros\":"),
            std::string::npos)
      << hit.plan_json;
  EXPECT_EQ(ExtractAll(hit.plan_json, "seed_micros").size(), 1u);
  EXPECT_EQ(hit.result->clique.size(), 6u);
}

// The configured bounds run once per component, at its root: a component
// they cut is listed as searched, with no nodes and one bound prune.
TEST(ExplainTest, ComponentCutByTheRootBoundHasNoNodes) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "dblp", LoadDataset("dblp-s", 0.25));
  PreparedGraphCache prepared_cache(4);
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr, &prepared_cache);

  // The unseeded baseline query prepares the plan at k = 2, so the full
  // query after it hits that plan instead of lifting k past its seed.
  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(2, 1);
  ASSERT_TRUE(executor.Run(request).status.ok());
  request.options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  request.explain = true;
  QueryResponse response = executor.Run(request);
  ASSERT_TRUE(response.status.ok());
  ASSERT_TRUE(response.prepared_hit);
  EXPECT_EQ(response.result->clique.size(), 22u);
  const std::string& json = response.plan_json;
  EXPECT_NE(json.find("\"searched\":true,\"engine\":\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"nodes\":0,\"bound_prunes\":1,"), std::string::npos)
      << json;
  for (const char* key : {"nodes", "bound_prunes", "size_prunes",
                          "attr_prunes", "cap_removals"}) {
    std::vector<long long> vals = ExtractAll(json, key);
    ASSERT_GE(vals.size(), 2u) << key;
    EXPECT_EQ(Sum(vals, 1), vals.back()) << key;
  }
  EXPECT_EQ(ExtractAll(json, "nodes").back(), 0);
  EXPECT_EQ(ExtractAll(json, "bound_prunes").back(), 1);
}

TEST(ExplainTest, ComponentSkippedAfterASiblingAbortReadsAborted) {
  // The baseline preset seeds nothing, so both components become branch
  // tasks. node_limit = 1 aborts the larger one, and the smaller one is
  // then skipped unsearched: its row must say so.
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "two", TwoComponentGraph());
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 2);
  request.options.node_limit = 1;
  request.explain = true;
  QueryResponse response = executor.Run(request);
  ASSERT_TRUE(response.status.ok());
  const std::string& json = response.plan_json;
  const size_t second = json.find("{\"index\":1,");
  ASSERT_NE(second, std::string::npos) << json;
  const std::string row =
      json.substr(second, json.find('}', second) - second);
  EXPECT_NE(row.find("\"searched\":true"), std::string::npos) << json;
  EXPECT_NE(row.find("\"nodes\":0,"), std::string::npos) << json;
  EXPECT_NE(row.find("\"aborted\":true"), std::string::npos) << json;
}

TEST(ExplainTest, QueuedPlanIsInternallyConsistent) {
  // The acceptance check from the issue: per-component stage micros and
  // node counts in the plan must sum exactly to the totals the response
  // carries — the plan is assembled from the same ComponentBranchResults
  // the aggregate folded, so any drift is a bug.
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "two", TwoComponentGraph());
  QueryExecutor executor(ExecutorOptions{2, 8}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 2);
  request.explain = true;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  ASSERT_FALSE(response.plan_json.empty());
  const std::string& plan = response.plan_json;
  const SearchStats& stats = response.result->stats;

  // Both components are listed; the plan carries the reduction stages.
  EXPECT_EQ(ExtractAll(plan, "index").size(), 2u) << plan;
  EXPECT_NE(plan.find("\"stages\":["), std::string::npos) << plan;
  EXPECT_NE(plan.find("\"engine\":\""), std::string::npos) << plan;

  // nodes: per-component rows followed by the totals object — the totals
  // value equals the response stats, and the rows sum to it.
  std::vector<long long> nodes = ExtractAll(plan, "nodes");
  ASSERT_GE(nodes.size(), 2u);
  EXPECT_EQ(nodes.back(), static_cast<long long>(stats.nodes));
  EXPECT_EQ(Sum(nodes, 1), nodes.back());

  // search_micros: per-component values sum to component_search_micros
  // (the last "search_micros" is the totals' wall clock, excluded).
  std::vector<long long> micros = ExtractAll(plan, "search_micros");
  std::vector<long long> comp_total =
      ExtractAll(plan, "component_search_micros");
  ASSERT_EQ(comp_total.size(), 1u);
  EXPECT_EQ(comp_total[0], static_cast<long long>(stats.component_search_micros));
  ASSERT_GE(micros.size(), 1u);
  EXPECT_EQ(Sum(micros, 1), comp_total[0]);

  // Prune counters sum component-wise to the totals as well.
  for (const char* key : {"bound_prunes", "size_prunes", "attr_prunes",
                          "cap_removals"}) {
    std::vector<long long> vals = ExtractAll(plan, key);
    ASSERT_GE(vals.size(), 1u) << key;
    EXPECT_EQ(Sum(vals, 1), vals.back()) << key;
  }

  // A completed search explains with an empty stop reason.
  EXPECT_STREQ(response.stop_reason, "");
  EXPECT_NE(plan.find("\"completed\":true,\"stop_reason\":\"\""),
            std::string::npos)
      << plan;
}

TEST(ExplainTest, SynchronousRunMatchesQueuedPlanShape) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "two", TwoComponentGraph());
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 2);
  request.explain = true;
  QueryResponse response = executor.Run(request);
  ASSERT_TRUE(response.status.ok());
  ASSERT_FALSE(response.plan_json.empty());

  std::vector<long long> nodes = ExtractAll(response.plan_json, "nodes");
  ASSERT_GE(nodes.size(), 2u);
  EXPECT_EQ(Sum(nodes, 1), nodes.back());
  EXPECT_EQ(nodes.back(),
            static_cast<long long>(response.result->stats.nodes));
}

TEST(ExplainTest, CacheHitPlanRecordsTheDecisionOnly) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "two", TwoComponentGraph());
  ResultCache cache(16);
  QueryExecutor executor(ExecutorOptions{2, 8}, &cache);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 2);
  request.explain = true;
  QueryResponse cold = executor.Submit(request).get();
  ASSERT_TRUE(cold.status.ok());
  EXPECT_NE(cold.plan_json.find("\"probed\":true,\"hit\":false"),
            std::string::npos)
      << cold.plan_json;

  QueryResponse warm = executor.Submit(request).get();
  ASSERT_TRUE(warm.status.ok());
  ASSERT_TRUE(warm.cache_hit);
  ASSERT_FALSE(warm.plan_json.empty());
  // A hit never searched: the plan records the cache decision and an empty
  // component table.
  EXPECT_NE(warm.plan_json.find("\"result_cache\":{\"probed\":true,"
                                "\"hit\":true}"),
            std::string::npos)
      << warm.plan_json;
  EXPECT_NE(warm.plan_json.find("\"components\":[]"), std::string::npos)
      << warm.plan_json;
}

TEST(ExplainTest, PlanOmittedWhenNotRequested) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "two", TwoComponentGraph());
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);
  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 2);
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.plan_json.empty());
}

// ------------------------------------------------------------- stop reasons

TEST(StopReasonTest, NamesAndPrecedence) {
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "");
  EXPECT_STREQ(StopReasonName(StopReason::kNodeLimit), "node_limit");
  EXPECT_STREQ(StopReasonName(StopReason::kTimeLimit), "time_limit");
  // Aggregation takes the max, so a time-limit stop in any component
  // dominates node-limit stops in others.
  EXPECT_EQ(std::max(StopReason::kNodeLimit, StopReason::kTimeLimit),
            StopReason::kTimeLimit);
  EXPECT_EQ(std::max(StopReason::kNone, StopReason::kNodeLimit),
            StopReason::kNodeLimit);
}

TEST(StopReasonTest, NodeLimitAttributedAndCounted) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x5EED));
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 100);
  request.options.node_limit = 64;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.result->stats.completed);
  EXPECT_EQ(response.result->stats.stop_reason, StopReason::kNodeLimit);
  EXPECT_STREQ(response.stop_reason, "node_limit");
  // deadline_missed keeps its legacy any-valve meaning ("a safety valve
  // stopped the search"); stop_reason is what distinguishes which one.
  EXPECT_TRUE(response.deadline_missed);
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.stopped_node_limit, 1u);
  EXPECT_EQ(m.stopped_time_limit, 0u);
  EXPECT_EQ(m.stopped_deadline, 0u);
}

TEST(StopReasonTest, OwnTimeLimitAttributedAsTimeLimitNotDeadline) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x5EED));
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 100);
  request.options.time_limit_seconds = 5e-2;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.result->stats.completed);
  EXPECT_EQ(response.result->stats.stop_reason, StopReason::kTimeLimit);
  // The request's own valve fired, not the per-query deadline.
  EXPECT_STREQ(response.stop_reason, "time_limit");
  EXPECT_EQ(executor.metrics().stopped_time_limit, 1u);
  EXPECT_EQ(executor.metrics().stopped_deadline, 0u);
}

TEST(StopReasonTest, DeadlineTighteningReattributesTheTimeLimit) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x5EED));
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 100);
  request.deadline_seconds = 5e-2;  // tighter than the (absent) time limit
  request.explain = true;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.deadline_missed);
  EXPECT_STREQ(response.stop_reason, "deadline");
  EXPECT_EQ(executor.metrics().stopped_deadline, 1u);
  // The truncated plan still reports consistent totals and the reason.
  ASSERT_FALSE(response.plan_json.empty());
  EXPECT_NE(response.plan_json.find("\"stop_reason\":\"deadline\""),
            std::string::npos)
      << response.plan_json;
}

TEST(StopReasonTest, CompletedSearchReportsEmptyReason) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "easy", MakeGraph("ab", {{0, 1}}));
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);
  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 1);
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.result->stats.completed);
  EXPECT_EQ(response.result->stats.stop_reason, StopReason::kNone);
  EXPECT_STREQ(response.stop_reason, "");
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.stopped_node_limit + m.stopped_time_limit + m.stopped_deadline,
            0u);
}

}  // namespace
}  // namespace fairclique
