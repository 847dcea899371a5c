#ifndef FAIRCLIQUE_GRAPH_IO_H_
#define FAIRCLIQUE_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace fairclique {

/// Options controlling edge-list parsing.
struct EdgeListOptions {
  /// Lines starting with any of these characters are skipped (SNAP files use
  /// '#'; network-repository files use '%').
  std::string comment_prefixes = "#%";
  /// When true, vertex ids in the file may be arbitrary (sparse) and are
  /// remapped to a dense [0, n) range in first-appearance order. When false,
  /// ids must already be dense and `num_vertices` is max id + 1.
  bool remap_ids = true;
};

/// Loads a whitespace-separated edge list ("u v" per line, undirected,
/// SNAP/network-repository style). All vertices receive attribute kA;
/// use LoadAttributes or an AttributeAssigner afterwards.
///
/// Fails with InvalidArgument on malformed lines (non-numeric tokens, ids
/// past 2^64 - 1, missing endpoint) and IOError when the file cannot be
/// read.
Status LoadEdgeList(const std::string& path, const EdgeListOptions& options,
                    AttributedGraph* out);

/// Loads per-vertex attributes from a text file with lines "vertex attr"
/// where attr is 0/1 or a/b. Vertices absent from the file keep attribute kA.
/// Fails on out-of-range vertex ids or unparsable attribute tokens.
Status LoadAttributes(const std::string& path, VertexId num_vertices,
                      std::vector<Attribute>* out);

/// Loads an edge list and an attribute file into one attributed graph.
/// When `attribute_path` is empty all attributes default to kA. The
/// attribute file names vertices by the edge list's ids: under `remap_ids`
/// they go through the same first-appearance map as the edges. A vertex
/// named only in the attribute file becomes an isolated vertex, so a pair
/// written by SaveEdgeList + SaveAttributes reloads with every vertex.
Status LoadAttributedGraph(const std::string& edge_path,
                           const std::string& attribute_path,
                           const EdgeListOptions& options,
                           AttributedGraph* out);

/// Loads a METIS-format graph (one header line "n m [fmt]", then one line
/// per vertex listing its 1-based neighbors). Vertex attributes default to
/// kA. Tolerates comment lines starting with '%'. Edge weights are not
/// supported (fmt must be 0 or absent), and a header whose n or m does not
/// fit a 32-bit id is InvalidArgument.
Status LoadMetisGraph(const std::string& path, AttributedGraph* out);

/// Writes "u v" lines (one per undirected edge) plus a header comment.
Status SaveEdgeList(const AttributedGraph& g, const std::string& path);

/// Writes "v attr" lines with attr in {0, 1}.
Status SaveAttributes(const AttributedGraph& g, const std::string& path);

}  // namespace fairclique

#endif  // FAIRCLIQUE_GRAPH_IO_H_
