// End-to-end integration tests: the full pipeline on the stand-in datasets
// and larger synthetic graphs, IO round trips through the search, and
// cross-module consistency at realistic scale (thousands of vertices).

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "core/fairclique.h"
#include "datasets/datasets.h"

namespace fairclique {
namespace {

TEST(IntegrationTest, FullPipelineOnEveryDataset) {
  for (const DatasetSpec& spec : StandardDatasets()) {
    AttributedGraph g = LoadDataset(spec.name, /*scale=*/0.5);
    FairnessParams params{spec.default_k, spec.default_delta};
    SearchResult r = FindMaximumFairClique(
        g, FullOptions(params.k, params.delta,
                       ExtraBound::kColorfulDegeneracy));
    ASSERT_TRUE(r.stats.completed) << spec.name;
    if (!r.clique.empty()) {
      EXPECT_TRUE(VerifyFairClique(g, r.clique.vertices, params).ok())
          << spec.name;
    }
    // The maximum clique upper-bounds the fair answer.
    MaxCliqueResult mc = FindMaximumClique(g, /*node_limit=*/20'000'000);
    if (mc.completed) {
      EXPECT_GE(mc.clique.size(), r.clique.size()) << spec.name;
    }
  }
}

TEST(IntegrationTest, ReductionTogglesNeverChangeTheAnswer) {
  AttributedGraph g = LoadDataset("dblp-s", 0.4);
  const int k = 5, delta = 2;
  size_t reference = 0;
  bool first = true;
  for (bool core : {true, false}) {
    for (bool sup : {true, false}) {
      for (bool ensup : {true, false}) {
        SearchOptions opts =
            BoundedOptions(k, delta, ExtraBound::kColorfulPath);
        opts.reductions = {core, sup, ensup};
        SearchResult r = FindMaximumFairClique(g, opts);
        ASSERT_TRUE(r.stats.completed);
        if (first) {
          reference = r.clique.size();
          first = false;
        } else {
          EXPECT_EQ(r.clique.size(), reference)
              << "core=" << core << " sup=" << sup << " ensup=" << ensup;
        }
      }
    }
  }
}

TEST(IntegrationTest, EnginesAgreeOnDatasetScaleGraphs) {
  AttributedGraph g = LoadDataset("aminer-s", 0.5);
  SearchOptions vec = FullOptions(4, 2, ExtraBound::kColorfulDegeneracy);
  vec.engine = SearchEngine::kVector;
  SearchOptions bit = vec;
  bit.engine = SearchEngine::kBitset;
  SearchResult rv = FindMaximumFairClique(g, vec);
  SearchResult rb = FindMaximumFairClique(g, bit);
  EXPECT_EQ(rv.clique.size(), rb.clique.size());
  EXPECT_EQ(rv.stats.nodes, rb.stats.nodes);
}

TEST(IntegrationTest, BinaryRoundTripThroughSearch) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("fairclique_integ_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::string path = (dir / "graph.fcg2").string();

  AttributedGraph g = LoadDataset("flixster-s", 0.3);
  ASSERT_TRUE(storage::SaveFcg2(g, path).ok());
  AttributedGraph loaded;
  ASSERT_TRUE(storage::LoadFcg2(path, &loaded).ok());

  SearchResult orig =
      FindMaximumFairClique(g, FullOptions(3, 2, ExtraBound::kColorfulPath));
  SearchResult round = FindMaximumFairClique(
      loaded, FullOptions(3, 2, ExtraBound::kColorfulPath));
  EXPECT_EQ(orig.clique.vertices, round.clique.vertices);
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, HeuristicsBracketTheExactAnswerEverywhere) {
  for (const char* name : {"themarker-s", "pokec-s"}) {
    DatasetSpec spec = DatasetByName(name);
    AttributedGraph g = LoadDataset(name, 0.5);
    FairnessParams params{spec.default_k, spec.default_delta};
    HeuristicResult heur = HeurRFC(g, {params, 1});
    SearchResult exact = FindMaximumFairClique(
        g, FullOptions(params.k, params.delta, ExtraBound::kColorfulPath));
    ASSERT_TRUE(exact.stats.completed) << name;
    EXPECT_LE(heur.clique.size(), exact.clique.size()) << name;
    if (!exact.clique.empty()) {
      EXPECT_GE(heur.color_upper_bound,
                static_cast<int64_t>(exact.clique.size()))
          << name;
    }
  }
}

TEST(IntegrationTest, StatsAreInternallyConsistentOnDatasets) {
  for (const char* name : {"google-s", "dblp-s"}) {
    AttributedGraph g = LoadDataset(name, 0.5);
    GraphStats s = ComputeGraphStats(g);
    EXPECT_EQ(s.num_vertices, g.num_vertices());
    EXPECT_EQ(s.num_edges, g.num_edges());
    EXPECT_EQ(s.attribute_counts.Total(),
              static_cast<int64_t>(g.num_vertices()));
    EXPECT_LE(s.largest_component, g.num_vertices());
    EXPECT_GE(s.global_clustering, 0.0);
    EXPECT_LE(s.global_clustering, 1.0);
    EXPECT_GE(s.same_attribute_edge_fraction, 0.0);
    EXPECT_LE(s.same_attribute_edge_fraction, 1.0);
  }
}

}  // namespace
}  // namespace fairclique
