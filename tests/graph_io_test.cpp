#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/max_fair_clique.h"
#include "datasets/datasets.h"
#include "graph/io.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::RandomAttributedGraph;

// Writes `content` into a fresh temp file and returns its path.
class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fairclique_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteFile(const std::string& name, const std::string& content) {
    std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << content;
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, LoadsSimpleEdgeList) {
  std::string path = WriteFile("g.txt", "0 1\n1 2\n2 0\n");
  AttributedGraph g;
  EdgeListOptions opts;
  opts.remap_ids = false;
  ASSERT_TRUE(LoadEdgeList(path, opts, &g).ok());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST_F(IoTest, SkipsCommentsAndBlankLines) {
  std::string path = WriteFile(
      "g.txt", "# SNAP style header\n% network-repository style\n\n0 1\n\n1 2\n");
  AttributedGraph g;
  EdgeListOptions opts;
  opts.remap_ids = false;
  ASSERT_TRUE(LoadEdgeList(path, opts, &g).ok());
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(IoTest, RemapsSparseIds) {
  // Any 64-bit id is legal under remapping, 2^64 - 1 included.
  for (const char* content :
       {"1000000 5\n5 70000\n", "18446744073709551615 5\n5 70000\n"}) {
    std::string path = WriteFile("g.txt", content);
    AttributedGraph g;
    EdgeListOptions opts;  // remap on by default
    ASSERT_TRUE(LoadEdgeList(path, opts, &g).ok()) << content;
    EXPECT_EQ(g.num_vertices(), 3u);
    EXPECT_EQ(g.num_edges(), 2u);
  }
}

TEST_F(IoTest, DuplicateAndSelfLoopEdgesNormalized) {
  std::string path = WriteFile("g.txt", "0 1\n1 0\n2 2\n0 1\n");
  AttributedGraph g;
  EdgeListOptions opts;
  opts.remap_ids = false;
  ASSERT_TRUE(LoadEdgeList(path, opts, &g).ok());
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST_F(IoTest, MissingFileIsIOError) {
  AttributedGraph g;
  Status s = LoadEdgeList((dir_ / "nope.txt").string(), {}, &g);
  EXPECT_TRUE(s.IsIOError());
}

TEST_F(IoTest, MalformedLineIsInvalidArgument) {
  std::string path = WriteFile("g.txt", "0 1\n2\n");
  AttributedGraph g;
  Status s = LoadEdgeList(path, {}, &g);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find(":2"), std::string::npos) << s.ToString();
}

TEST_F(IoTest, NonNumericTokenIsInvalidArgument) {
  std::string path = WriteFile("g.txt", "0 x\n");
  AttributedGraph g;
  EXPECT_TRUE(LoadEdgeList(path, {}, &g).IsInvalidArgument());
}

TEST_F(IoTest, NegativeIdIsInvalidArgument) {
  std::string path = WriteFile("g.txt", "0 -3\n");
  AttributedGraph g;
  EXPECT_TRUE(LoadEdgeList(path, {}, &g).IsInvalidArgument());
}

TEST_F(IoTest, OverflowingIdIsInvalidArgument) {
  // 2^64 + 1 must not wrap to 1.
  std::string path = WriteFile("g.txt", "0 1\n18446744073709551617 2\n");
  AttributedGraph g;
  Status s = LoadEdgeList(path, {}, &g);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find(":2"), std::string::npos) << s.ToString();

  std::string gpath = WriteFile("ok.txt", "0 1\n");
  std::string apath = WriteFile("a.txt", "18446744073709551617 b\n");
  EXPECT_TRUE(LoadAttributedGraph(gpath, apath, {}, &g).IsInvalidArgument());
}

TEST_F(IoTest, AttributeFileFollowsRemappedIds) {
  // First appearance maps file ids 0, 5, 1, 2 to 0, 1, 2, 3. File id 9 is
  // named only by the attribute file and becomes isolated vertex 4.
  std::string gpath = WriteFile("g.txt", "0 5\n1 2\n5 1\n");
  std::string apath = WriteFile("a.txt", "1 b\n9 b\n");
  AttributedGraph g;
  ASSERT_TRUE(LoadAttributedGraph(gpath, apath, {}, &g).ok());
  ASSERT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.attribute(1), Attribute::kA);  // file id 5
  EXPECT_EQ(g.attribute(2), Attribute::kB);  // file id 1
  EXPECT_EQ(g.attribute(4), Attribute::kB);  // file id 9
  EXPECT_EQ(g.degree(4), 0u);
  EXPECT_EQ(g.attribute_counts().b(), 2);
}

TEST_F(IoTest, SavedStandInReloadsWithDefaultOptions) {
  for (const char* name : {"dblp-s", "themarker-s"}) {
    SCOPED_TRACE(name);
    const DatasetSpec spec = DatasetByName(name);
    AttributedGraph g = LoadDataset(name);
    std::string gpath = (dir_ / "standin.txt").string();
    std::string apath = (dir_ / "standin_attr.txt").string();
    ASSERT_TRUE(SaveEdgeList(g, gpath).ok());
    ASSERT_TRUE(SaveAttributes(g, apath).ok());

    AttributedGraph loaded;
    ASSERT_TRUE(LoadAttributedGraph(gpath, apath, {}, &loaded).ok());
    EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
    EXPECT_EQ(loaded.num_edges(), g.num_edges());
    EXPECT_EQ(loaded.attribute_counts().a(), g.attribute_counts().a());
    EXPECT_EQ(loaded.attribute_counts().b(), g.attribute_counts().b());
    const SearchOptions options = FullOptions(
        spec.default_k, spec.default_delta, ExtraBound::kColorfulPath);
    EXPECT_EQ(FindMaximumFairClique(loaded, options).clique.size(),
              FindMaximumFairClique(g, options).clique.size());
  }
}

TEST_F(IoTest, AttributesParseBothTokenStyles) {
  std::string gpath = WriteFile("g.txt", "0 1\n1 2\n");
  std::string apath = WriteFile("a.txt", "0 a\n1 1\n2 B\n");
  AttributedGraph g;
  EdgeListOptions opts;
  opts.remap_ids = false;
  ASSERT_TRUE(LoadAttributedGraph(gpath, apath, opts, &g).ok());
  EXPECT_EQ(g.attribute(0), Attribute::kA);
  EXPECT_EQ(g.attribute(1), Attribute::kB);
  EXPECT_EQ(g.attribute(2), Attribute::kB);
}

TEST_F(IoTest, AttributeForUnknownVertexIsOutOfRange) {
  std::string apath = WriteFile("a.txt", "7 a\n");
  std::vector<Attribute> attrs;
  EXPECT_TRUE(LoadAttributes(apath, 3, &attrs).IsOutOfRange());
}

TEST_F(IoTest, AttributeBadTokenIsInvalidArgument) {
  std::string apath = WriteFile("a.txt", "0 q\n");
  std::vector<Attribute> attrs;
  EXPECT_TRUE(LoadAttributes(apath, 3, &attrs).IsInvalidArgument());
}

TEST_F(IoTest, MissingAttributesDefaultToA) {
  std::string apath = WriteFile("a.txt", "1 b\n");
  std::vector<Attribute> attrs;
  ASSERT_TRUE(LoadAttributes(apath, 3, &attrs).ok());
  EXPECT_EQ(attrs[0], Attribute::kA);
  EXPECT_EQ(attrs[1], Attribute::kB);
  EXPECT_EQ(attrs[2], Attribute::kA);
}

TEST_F(IoTest, SaveLoadRoundTripPreservesGraph) {
  AttributedGraph g = RandomAttributedGraph(50, 0.1, 42);
  std::string gpath = (dir_ / "round.txt").string();
  std::string apath = (dir_ / "round_attr.txt").string();
  ASSERT_TRUE(SaveEdgeList(g, gpath).ok());
  ASSERT_TRUE(SaveAttributes(g, apath).ok());

  AttributedGraph loaded;
  EdgeListOptions opts;
  opts.remap_ids = false;
  ASSERT_TRUE(LoadAttributedGraph(gpath, apath, opts, &loaded).ok());
  // The attribute file names every vertex, isolated ones included.
  ASSERT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_EQ(testing_util::EdgesOf(loaded), testing_util::EdgesOf(g));
  for (VertexId v = 0; v < loaded.num_vertices(); ++v) {
    EXPECT_EQ(loaded.attribute(v), g.attribute(v));
  }
}

TEST_F(IoTest, SaveToUnwritablePathFails) {
  AttributedGraph g = RandomAttributedGraph(5, 0.5, 1);
  EXPECT_TRUE(SaveEdgeList(g, "/nonexistent_dir_xyz/out.txt").IsIOError());
}

// ----------------------------------------------------------------- METIS --

TEST_F(IoTest, MetisBasicTriangle) {
  // 3 vertices, 3 edges; 1-based adjacency lines.
  std::string path = WriteFile("tri.metis", "3 3\n2 3\n1 3\n1 2\n");
  AttributedGraph g;
  ASSERT_TRUE(LoadMetisGraph(path, &g).ok());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
}

TEST_F(IoTest, MetisSkipsCommentLines) {
  std::string path =
      WriteFile("c.metis", "% a comment\n2 1\n% another\n2\n1\n");
  AttributedGraph g;
  ASSERT_TRUE(LoadMetisGraph(path, &g).ok());
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST_F(IoTest, MetisIsolatedVertexLine) {
  // Vertex 2 has no neighbors: empty line.
  std::string path = WriteFile("iso.metis", "3 1\n3\n\n1\n");
  AttributedGraph g;
  ASSERT_TRUE(LoadMetisGraph(path, &g).ok());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST_F(IoTest, MetisRejectsWeightedFormat) {
  std::string path = WriteFile("w.metis", "2 1 1\n2 5\n1 5\n");
  AttributedGraph g;
  EXPECT_TRUE(LoadMetisGraph(path, &g).IsInvalidArgument());
}

TEST_F(IoTest, MetisRejectsOutOfRangeNeighbor) {
  std::string path = WriteFile("r.metis", "2 1\n5\n1\n");
  AttributedGraph g;
  EXPECT_TRUE(LoadMetisGraph(path, &g).IsOutOfRange());
}

TEST_F(IoTest, MetisRejectsTruncatedFile) {
  std::string path = WriteFile("t.metis", "3 2\n2\n");
  AttributedGraph g;
  EXPECT_TRUE(LoadMetisGraph(path, &g).IsCorruption());
}

TEST_F(IoTest, MetisRejectsNonNumericToken) {
  std::string path = WriteFile("n.metis", "2 1\n2 x\n1\n");
  AttributedGraph g;
  EXPECT_TRUE(LoadMetisGraph(path, &g).IsInvalidArgument());
}

TEST_F(IoTest, MetisHeaderPastVertexIdRangeIsInvalidArgument) {
  // n = 2^32 + 1 would narrow to a 1-vertex builder.
  std::string path = WriteFile("big.metis", "%\n4294967297 1\n2\n1\n");
  AttributedGraph g;
  EXPECT_TRUE(LoadMetisGraph(path, &g).IsInvalidArgument());
  path = WriteFile("bigm.metis", "2 4294967296\n2\n1\n");
  EXPECT_TRUE(LoadMetisGraph(path, &g).IsInvalidArgument());
}

}  // namespace
}  // namespace fairclique
