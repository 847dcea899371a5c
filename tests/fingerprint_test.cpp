// Dedicated tests for the content fingerprint (graph/fingerprint.h): load
//-path independence (edge-list text vs FCG2 binary), sensitivity to every
// kind of content perturbation, and label sensitivity.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/fingerprint.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "storage/fcg2.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A deterministic 10-vertex graph where every vertex has at least one edge
/// (so the text edge list covers the full id range) and both attributes
/// appear: a ring plus chords.
AttributedGraph ReferenceGraph() {
  return MakeGraph("ababababab",
                   {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
                    {7, 8}, {8, 9}, {9, 0}, {0, 5}, {2, 7}, {1, 4}, {3, 8}});
}

TEST(FingerprintIoTest, EdgeListAndBinaryLoadsAgree) {
  AttributedGraph g = ReferenceGraph();
  const uint64_t fp = GraphFingerprint(g);

  const std::string edge_path = TempPath("fp_edges.txt");
  const std::string attr_path = TempPath("fp_attrs.txt");
  const std::string bin_path = TempPath("fp_graph.fcg2");
  ASSERT_TRUE(SaveEdgeList(g, edge_path).ok());
  ASSERT_TRUE(SaveAttributes(g, attr_path).ok());
  ASSERT_TRUE(storage::SaveFcg2(g, bin_path).ok());

  // Text loading with id remapping disabled preserves labels, so both load
  // paths must reproduce the exact content and hence the fingerprint.
  EdgeListOptions options;
  options.remap_ids = false;
  AttributedGraph from_text;
  ASSERT_TRUE(
      LoadAttributedGraph(edge_path, attr_path, options, &from_text).ok());
  EXPECT_EQ(GraphFingerprint(from_text), fp);

  AttributedGraph from_binary;
  ASSERT_TRUE(storage::LoadFcg2(bin_path, &from_binary).ok());
  EXPECT_EQ(GraphFingerprint(from_binary), fp);

  std::remove(edge_path.c_str());
  std::remove(attr_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(FingerprintIoTest, EveryPerturbationChangesIt) {
  AttributedGraph g = ReferenceGraph();
  const uint64_t fp = GraphFingerprint(g);

  // Removing an edge.
  EXPECT_NE(fp, GraphFingerprint(MakeGraph(
                    "ababababab",
                    {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
                     {7, 8}, {8, 9}, {9, 0}, {0, 5}, {2, 7}, {1, 4}})));
  // Adding an edge.
  EXPECT_NE(fp, GraphFingerprint(MakeGraph(
                    "ababababab",
                    {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
                     {7, 8}, {8, 9}, {9, 0}, {0, 5}, {2, 7}, {1, 4}, {3, 8},
                     {2, 9}})));
  // Flipping one attribute.
  EXPECT_NE(fp, GraphFingerprint(MakeGraph(
                    "bbabababab",
                    {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
                     {7, 8}, {8, 9}, {9, 0}, {0, 5}, {2, 7}, {1, 4}, {3, 8}})));
  // Appending an isolated vertex (same edges, one more vertex).
  {
    GraphBuilder builder(11);
    for (VertexId v = 0; v < 10; ++v) {
      builder.SetAttribute(v, v % 2 == 0 ? Attribute::kA : Attribute::kB);
    }
    for (const Edge& e : g.edges()) builder.AddEdge(e.u, e.v);
    EXPECT_NE(fp, GraphFingerprint(builder.Build()));
  }
}

TEST(FingerprintIoTest, LabelSensitive) {
  // Swapping the ids of two vertices with different neighborhoods yields an
  // isomorphic graph but a different fingerprint: cached search results
  // report vertex ids, so a relabeled graph must not share cache entries.
  // (Here ids 0 and 3 are swapped.)
  AttributedGraph g = MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}});
  AttributedGraph swapped = MakeGraph("baba", {{3, 1}, {1, 2}, {2, 0}});
  EXPECT_NE(GraphFingerprint(g), GraphFingerprint(swapped));
}

TEST(FingerprintIoTest, BuildRouteIndependent) {
  // The same content assembled in a different edge order (and with
  // duplicate insertions that normalization collapses) fingerprints
  // identically.
  GraphBuilder b(5);
  b.SetAttribute(1, Attribute::kB);
  b.SetAttribute(4, Attribute::kB);
  b.AddEdge(3, 4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate, reversed
  b.AddEdge(2, 4);
  b.AddEdge(1, 2);
  AttributedGraph via_builder = b.Build();

  AttributedGraph via_list =
      MakeGraph("abaab", {{0, 1}, {1, 2}, {2, 4}, {3, 4}});
  EXPECT_EQ(GraphFingerprint(via_builder), GraphFingerprint(via_list));
}

}  // namespace
}  // namespace fairclique
