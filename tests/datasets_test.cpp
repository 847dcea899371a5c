#include <gtest/gtest.h>

#include <limits>

#include "core/heuristics.h"
#include "datasets/datasets.h"
#include "graph/cores.h"
#include "test_util.h"

namespace fairclique {
namespace {

TEST(DatasetsTest, RegistryListsSixStandIns) {
  std::vector<DatasetSpec> specs = StandardDatasets();
  ASSERT_EQ(specs.size(), 6u);
  for (const DatasetSpec& spec : specs) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.k_range.empty());
    EXPECT_GE(spec.default_k, 1);
    EXPECT_GE(spec.default_delta, 0);
    // The default k must lie in the sweep range.
    EXPECT_NE(std::find(spec.k_range.begin(), spec.k_range.end(),
                        spec.default_k),
              spec.k_range.end());
  }
}

TEST(DatasetsTest, DatasetByNameRoundTrips) {
  for (const DatasetSpec& spec : StandardDatasets()) {
    EXPECT_EQ(DatasetByName(spec.name).name, spec.name);
  }
}

TEST(DatasetsDeathTest, ScalesPastVertexIdAbort) {
  // 5000 * 1e9 vertices do not fit a VertexId: abort before allocating.
  EXPECT_DEATH(LoadDataset("dblp-s", 1e9), "more than a VertexId");
  EXPECT_DEATH(LoadDataset("dblp-s", std::numeric_limits<double>::infinity()),
               "positive and finite");
  EXPECT_DEATH(LoadDataset("dblp-s", std::numeric_limits<double>::quiet_NaN()),
               "positive and finite");
}

class DatasetLoadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetLoadTest, LoadsValidDeterministicGraph) {
  const std::string name = GetParam();
  AttributedGraph g = LoadDataset(name);
  EXPECT_GT(g.num_vertices(), 500u);
  EXPECT_GT(g.num_edges(), 2000u);
  EXPECT_TRUE(g.Validate().ok());
  // Both attributes present in meaningful numbers.
  AttrCounts cnt = g.attribute_counts();
  EXPECT_GT(cnt.Min(), static_cast<int64_t>(g.num_vertices()) / 10);
  // Deterministic: loading twice yields the identical graph.
  AttributedGraph again = LoadDataset(name);
  EXPECT_EQ(testing_util::EdgesOf(g), testing_util::EdgesOf(again));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.attribute(v), again.attribute(v));
  }
}

TEST_P(DatasetLoadTest, ContainsFairCliqueAtDefaultParameters) {
  const std::string name = GetParam();
  DatasetSpec spec = DatasetByName(name);
  AttributedGraph g = LoadDataset(name);
  // The planted balanced cliques guarantee a fair clique across the sweep
  // range; the linear-time heuristic should find one at the defaults.
  HeuristicResult heur = HeurRFC(g, {{spec.default_k, spec.default_delta}, 4});
  EXPECT_GE(heur.clique.size(), 2u * static_cast<size_t>(spec.default_k))
      << name;
}

TEST_P(DatasetLoadTest, ScaleChangesSize) {
  const std::string name = GetParam();
  AttributedGraph small = LoadDataset(name, 0.5);
  AttributedGraph full = LoadDataset(name, 1.0);
  EXPECT_LT(small.num_vertices(), full.num_vertices());
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetLoadTest,
                         ::testing::Values("themarker-s", "google-s", "dblp-s",
                                           "flixster-s", "pokec-s",
                                           "aminer-s"));

TEST(DatasetsTest, AminerAttributesAreAssortative) {
  AttributedGraph g = LoadDataset("aminer-s");
  uint64_t same = 0;
  for (const Edge& e : g.edges()) {
    if (g.attribute(e.u) == g.attribute(e.v)) ++same;
  }
  double frac = static_cast<double>(same) / g.num_edges();
  // Correlated attributes: clearly above the independent-label baseline.
  EXPECT_GT(frac, 0.6);
}

TEST(DatasetsTest, DegreeSkewOnSocialStandIns) {
  for (const char* name : {"themarker-s", "pokec-s"}) {
    AttributedGraph g = LoadDataset(name);
    double avg = 2.0 * g.num_edges() / g.num_vertices();
    EXPECT_GT(g.max_degree(), 3 * avg) << name;
  }
}

}  // namespace
}  // namespace fairclique
