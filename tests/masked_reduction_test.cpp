#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "datasets/datasets.h"
#include "graph/coloring.h"
#include "reduction/colorful_core.h"
#include "reduction/colorful_support.h"
#include "reduction/reduce.h"
#include "reduction_golden.h"
#include "test_util.h"

namespace fairclique {
namespace {

using reduction_golden::StageOptions;
using testing_util::EdgesOf;

// The chained-copy form of the pipeline: recolor the current copy, run the
// public stage on it, FilteredSubgraph the survivors, compose the ids.
// ReduceForFairClique copies only twice: EnColorfulCore's survivors, then,
// after both support stages ran on that copy under masks, theirs.
class ChainedCopy {
 public:
  explicit ChainedCopy(const AttributedGraph& g) : g_(g), cur_(g) {
    ids_.resize(g.num_vertices());
    std::iota(ids_.begin(), ids_.end(), 0);
  }

  const AttributedGraph& graph() const { return cur_; }
  const std::vector<VertexId>& ids() const { return ids_; }
  // True while the copy is an induced subgraph of g: before the first
  // support stage.
  bool induced() const { return induced_; }

  // The current copy as masks over g's ids.
  void Masks(std::vector<uint8_t>* vertex_alive,
             std::vector<uint8_t>* edge_alive) const {
    vertex_alive->assign(g_.num_vertices(), 0);
    edge_alive->assign(g_.num_edges(), 0);
    for (VertexId v : ids_) (*vertex_alive)[v] = 1;
    for (const Edge& e : cur_.edges()) {
      const EdgeId orig = g_.FindEdge(ids_[e.u], ids_[e.v]);
      ASSERT_NE(orig, kInvalidEdge);
      (*edge_alive)[orig] = 1;
    }
  }

  // Runs stage 0 (EnColorfulCore), 1 (ColorfulSup) or 2 (EnColorfulSup).
  void Run(int stage, int k, const Coloring& coloring) {
    std::vector<uint8_t> vertex_alive;
    std::vector<uint8_t> edge_alive;
    if (stage == 0) {
      vertex_alive = EnColorfulCore(cur_, coloring, k - 1).alive;
    } else {
      EdgeReductionResult r = stage == 1
                                  ? ColorfulSupReduction(cur_, coloring, k)
                                  : EnColorfulSupReduction(cur_, coloring, k);
      vertex_alive = std::move(r.vertex_alive);
      edge_alive = std::move(r.edge_alive);
    }
    induced_ = induced_ && stage == 0;
    std::vector<VertexId> inner;
    AttributedGraph next = cur_.FilteredSubgraph(vertex_alive, edge_alive,
                                                 &inner);
    for (VertexId& v : inner) v = ids_[v];
    ids_ = std::move(inner);
    cur_ = std::move(next);
  }

 private:
  const AttributedGraph& g_;
  AttributedGraph cur_;
  std::vector<VertexId> ids_;
  bool induced_ = true;
};

// The masked coloring of the current survivors must be the copy's coloring
// mapped through the ids, with the same number of colors: with the edge
// mask, and while the copy is induced also with the vertex mask alone.
void ExpectSameColoring(const AttributedGraph& g, const ChainedCopy& chain) {
  std::vector<uint8_t> vertex_alive;
  std::vector<uint8_t> edge_alive;
  chain.Masks(&vertex_alive, &edge_alive);
  const Coloring copied = GreedyColoring(chain.graph());
  std::vector<GraphMask> masks = {{vertex_alive, edge_alive}};
  if (chain.induced()) masks.push_back({vertex_alive, {}});
  for (const GraphMask& mask : masks) {
    const Coloring masked = GreedyColoring(g, mask);
    EXPECT_EQ(masked.num_colors, copied.num_colors);
    ASSERT_EQ(masked.color.size(), g.num_vertices());
    for (VertexId v = 0; v < chain.graph().num_vertices(); ++v) {
      ASSERT_EQ(masked.color[chain.ids()[v]], copied.color[v])
          << "vertex " << v;
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!vertex_alive[v]) ASSERT_EQ(masked.color[v], -1) << "vertex " << v;
    }
  }
}

class MaskedReductionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MaskedReductionTest, MatchesChainedCopiesAfterEveryStage) {
  const std::string name = GetParam();
  const AttributedGraph g = LoadDataset(name);
  for (int k : DatasetByName(name).k_range) {
    // The four golden stage sets plus ColorfulSup switched off, where
    // EnColorfulSup lists its own triangles from the masks.
    for (int stages = 0; stages < 5; ++stages) {
      const ReductionOptions options =
          stages == 4 ? ReductionOptions{true, false, true}
                      : StageOptions(stages);
      SCOPED_TRACE(testing::Message() << name << " k=" << k
                                      << " stages=" << stages);
      const ReductionPipelineResult piped =
          ReduceForFairClique(g, k, options);
      const bool on[3] = {options.use_en_colorful_core,
                          options.use_colorful_sup,
                          options.use_en_colorful_sup};
      ChainedCopy chain(g);
      size_t ran = 0;
      for (int stage = 0; stage < 3; ++stage) {
        if (!on[stage]) continue;
        ExpectSameColoring(g, chain);
        chain.Run(stage, k, GreedyColoring(chain.graph()));
        ASSERT_LT(ran, piped.stages.size());
        EXPECT_EQ(piped.stages[ran].vertices_left,
                  chain.graph().num_vertices());
        EXPECT_EQ(piped.stages[ran].edges_left, chain.graph().num_edges());
        ++ran;
      }
      ExpectSameColoring(g, chain);
      EXPECT_EQ(piped.stages.size(), ran);
      EXPECT_EQ(piped.original_ids, chain.ids());
      EXPECT_EQ(EdgesOf(piped.reduced), EdgesOf(chain.graph()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StandIns, MaskedReductionTest,
    ::testing::Values("themarker-s", "google-s", "dblp-s", "flixster-s",
                      "pokec-s", "aminer-s"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(MaskedReduction, EmptyMaskKeepsTheWholeGraph) {
  const AttributedGraph g = testing_util::RandomAttributedGraph(60, 0.2, 7);
  const Coloring whole = GreedyColoring(g);
  const Coloring masked = GreedyColoring(g, GraphMask{});
  EXPECT_EQ(masked.color, whole.color);
  EXPECT_EQ(masked.num_colors, whole.num_colors);
  const std::vector<uint8_t> all_v(g.num_vertices(), 1);
  const std::vector<uint8_t> all_e(g.num_edges(), 1);
  EXPECT_EQ(GreedyColoring(g, GraphMask{all_v, all_e}).color, whole.color);
}

TEST(MaskedReduction, NoStageSharesTheInput) {
  const AttributedGraph g = testing_util::RandomAttributedGraph(30, 0.3, 8);
  const ReductionPipelineResult r =
      ReduceForFairClique(g, 3, ReductionOptions{false, false, false});
  EXPECT_TRUE(r.stages.empty());
  EXPECT_EQ(r.reduced.edges().data(), g.edges().data());
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(r.original_ids, all);
}

}  // namespace
}  // namespace fairclique
