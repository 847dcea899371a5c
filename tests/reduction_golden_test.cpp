#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "datasets/datasets.h"
#include "reduction/reduce.h"
#include "reduction_golden.h"

namespace fairclique {
namespace {

using reduction_golden::GoldenReduction;
using reduction_golden::kGolden;
using reduction_golden::ReducedGraphHash;
using reduction_golden::StageOptions;

class ReductionGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ReductionGoldenTest, ReducedGraphsMatchPinnedFingerprints) {
  const std::string name = GetParam();
  const DatasetSpec spec = DatasetByName(name);
  int checked = 0;
  for (int scale : {1, 4}) {
    const AttributedGraph g = LoadDataset(name, scale);
    for (const GoldenReduction& want : kGolden) {
      if (want.dataset != name || want.scale != scale) continue;
      ReductionPipelineResult r =
          ReduceForFairClique(g, want.k, StageOptions(want.stages));
      SCOPED_TRACE(testing::Message() << name << " x" << scale << " k="
                                      << want.k << " stages=" << want.stages);
      EXPECT_EQ(r.reduced.num_vertices(), want.vertices);
      EXPECT_EQ(r.reduced.num_edges(), want.edges);
      EXPECT_EQ(ReducedGraphHash(r), want.hash);
      ++checked;
    }
  }
  // Every k of the dataset's sweep, at both scales, for all four pipelines.
  EXPECT_EQ(checked, static_cast<int>(spec.k_range.size()) * 2 * 4);
}

INSTANTIATE_TEST_SUITE_P(
    StandIns, ReductionGoldenTest,
    ::testing::Values("themarker-s", "google-s", "dblp-s", "flixster-s",
                      "pokec-s", "aminer-s"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace fairclique
