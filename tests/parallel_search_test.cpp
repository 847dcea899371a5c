#include <gtest/gtest.h>

#include "core/enumeration.h"
#include "core/max_fair_clique.h"
#include "core/verifier.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "service/graph_registry.h"
#include "service/query_executor.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::RandomAttributedGraph;

// A graph with many mid-size components, each containing a fair clique, so
// a pool actually distributes the Branch stage's component tasks.
AttributedGraph ManyComponentGraph(uint64_t seed, int components) {
  Rng rng(seed);
  GraphBuilder builder(static_cast<VertexId>(components * 30));
  for (int c = 0; c < components; ++c) {
    VertexId base = static_cast<VertexId>(c * 30);
    // Random component-local edges.
    for (VertexId u = 0; u < 30; ++u) {
      for (VertexId v = u + 1; v < 30; ++v) {
        if (rng.NextBool(0.25)) builder.AddEdge(base + u, base + v);
      }
    }
    // A planted balanced clique of size 6..12 inside the component.
    uint32_t size = static_cast<uint32_t>(rng.NextInRange(6, 12));
    std::vector<uint64_t> members = rng.SampleDistinct(30, size);
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        builder.AddEdge(base + static_cast<VertexId>(members[i]),
                        base + static_cast<VertexId>(members[j]));
      }
    }
    for (VertexId u = 0; u < 30; ++u) {
      builder.SetAttribute(base + u,
                           rng.NextBool(0.5) ? Attribute::kA : Attribute::kB);
    }
  }
  return builder.Build();
}

// Searches `g` on a QueryExecutor pool of `workers` threads: the query's
// BranchStage tasks spread over the pool, sharing the incumbent floor.
SearchResult PoolSearch(const AttributedGraph& g, const SearchOptions& options,
                        int workers) {
  GraphRegistry registry;
  EXPECT_TRUE(registry.Add("g", g).ok());
  QueryExecutor executor(ExecutorOptions{workers, 8}, nullptr);
  QueryRequest request;
  request.graph = registry.Get("g");
  request.options = options;
  QueryResponse response = executor.Submit(request).get();
  EXPECT_TRUE(response.status.ok());
  return response.result != nullptr ? *response.result : SearchResult{};
}

TEST(ParallelSearchTest, MatchesSequentialAnswerSize) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    AttributedGraph g = ManyComponentGraph(seed, 12);
    SearchOptions options = FullOptions(2, 2, ExtraBound::kColorfulDegeneracy);
    SearchResult rs = FindMaximumFairClique(g, options);
    for (int workers : {2, 4, 8}) {
      SearchResult rp = PoolSearch(g, options, workers);
      EXPECT_EQ(rs.clique.size(), rp.clique.size())
          << "seed=" << seed << " workers=" << workers;
      if (!rp.clique.empty()) {
        EXPECT_TRUE(VerifyFairClique(g, rp.clique.vertices, {2, 2}).ok());
      }
      EXPECT_TRUE(rp.stats.completed);
    }
  }
}

TEST(ParallelSearchTest, MatchesOracleOnRandomGraphs) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    AttributedGraph g = RandomAttributedGraph(40, 0.3, seed);
    FairnessParams params{2, 1};
    CliqueResult oracle = MaxFairCliqueByEnumeration(g, params);
    SearchResult r =
        PoolSearch(g, BoundedOptions(2, 1, ExtraBound::kColorfulPath), 4);
    EXPECT_EQ(r.clique.size(), oracle.size()) << "seed " << seed;
  }
}

TEST(ParallelSearchTest, DatasetScaleAgreement) {
  AttributedGraph g = LoadDataset("dblp-s", 0.5);
  SearchOptions options = FullOptions(5, 2, ExtraBound::kColorfulPath);
  SearchResult rs = FindMaximumFairClique(g, options);
  SearchResult rp = PoolSearch(g, options, 4);
  EXPECT_EQ(rs.clique.size(), rp.clique.size());
}

TEST(ParallelSearchTest, ManyTrivialComponentsDoNotCrash) {
  // 200 isolated edges: every component is skipped as too small.
  GraphBuilder builder(400);
  for (VertexId v = 0; v < 400; v += 2) {
    builder.AddEdge(v, v + 1);
    builder.SetAttribute(v, Attribute::kA);
    builder.SetAttribute(v + 1, Attribute::kB);
  }
  AttributedGraph g = builder.Build();
  SearchResult r = PoolSearch(g, BaselineOptions(2, 1), 8);
  EXPECT_TRUE(r.clique.empty());  // (2,*) needs 4 vertices.
}

}  // namespace
}  // namespace fairclique
