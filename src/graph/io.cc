#include "graph/io.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace fairclique {

namespace {

// Parses a non-negative integer token; returns false on any non-digit and
// on a value past 2^64 - 1.
bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool IsCommentLine(const std::string& line, const std::string& prefixes) {
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    return prefixes.find(c) != std::string::npos;
  }
  return true;  // Blank line: treat as skippable.
}

std::string Where(const std::string& path, size_t line_no) {
  return path + ":" + std::to_string(line_no);
}

// Turns the ids a text file names into dense vertex ids: first-appearance
// order under remap_ids, the id itself otherwise. Edge and attribute files
// share one map, so both name the same vertex.
class VertexIdMap {
 public:
  explicit VertexIdMap(bool remap) : remap_(remap) {}

  // Fails when the dense id would not fit below kInvalidVertex.
  bool Map(uint64_t id, VertexId* out) {
    uint64_t dense = id;
    if (remap_) {
      dense = first_seen_.emplace(id, first_seen_.size()).first->second;
    }
    if (dense >= kInvalidVertex) return false;
    *out = static_cast<VertexId>(dense);
    num_vertices_ = std::max(num_vertices_, dense + 1);
    return true;
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(num_vertices_);
  }

 private:
  bool remap_;
  std::unordered_map<uint64_t, uint64_t> first_seen_;
  uint64_t num_vertices_ = 0;
};

Status ReadEdges(const std::string& path, const EdgeListOptions& options,
                 VertexIdMap* ids, std::vector<Edge>* edges) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open edge list file: " + path);
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentLine(line, options.comment_prefixes)) continue;
    std::istringstream ls(line);
    std::string tu, tv;
    if (!(ls >> tu >> tv)) {
      return Status::InvalidArgument("malformed edge at " +
                                     Where(path, line_no) +
                                     " (need two endpoints)");
    }
    uint64_t u64, v64;
    if (!ParseU64(tu, &u64) || !ParseU64(tv, &v64)) {
      return Status::InvalidArgument(
          "non-numeric or overflowing vertex id at " + Where(path, line_no));
    }
    Edge e;
    if (!ids->Map(u64, &e.u) || !ids->Map(v64, &e.v)) {
      return Status::OutOfRange("vertex id exceeds 32 bits at " +
                                Where(path, line_no));
    }
    edges->push_back(e);
  }
  return Status::OK();
}

// Reads "vertex attr" lines and hands each (id, attribute, line number) to
// `apply`, whose non-OK status stops the read.
template <typename Apply>
Status ReadAttributes(const std::string& path, Apply apply) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open attribute file: " + path);
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentLine(line, "#%")) continue;
    std::istringstream ls(line);
    std::string tv, ta;
    if (!(ls >> tv >> ta)) {
      return Status::InvalidArgument("malformed attribute line at " +
                                     Where(path, line_no));
    }
    uint64_t v64;
    if (!ParseU64(tv, &v64)) {
      return Status::InvalidArgument(
          "non-numeric or overflowing vertex id at " + Where(path, line_no));
    }
    Attribute attr;
    if (ta == "0" || ta == "a" || ta == "A") {
      attr = Attribute::kA;
    } else if (ta == "1" || ta == "b" || ta == "B") {
      attr = Attribute::kB;
    } else {
      return Status::InvalidArgument("unparsable attribute token '" + ta +
                                     "' at " + Where(path, line_no));
    }
    FAIRCLIQUE_RETURN_NOT_OK(apply(v64, attr, line_no));
  }
  return Status::OK();
}

}  // namespace

Status LoadEdgeList(const std::string& path, const EdgeListOptions& options,
                    AttributedGraph* out) {
  return LoadAttributedGraph(path, "", options, out);
}

Status LoadAttributes(const std::string& path, VertexId num_vertices,
                      std::vector<Attribute>* out) {
  out->assign(num_vertices, Attribute::kA);
  return ReadAttributes(
      path, [&](uint64_t v64, Attribute attr, size_t line_no) {
        if (v64 >= num_vertices) {
          return Status::OutOfRange("attribute for out-of-range vertex " +
                                    std::to_string(v64) + " at " +
                                    Where(path, line_no));
        }
        (*out)[v64] = attr;
        return Status::OK();
      });
}

Status LoadAttributedGraph(const std::string& edge_path,
                           const std::string& attribute_path,
                           const EdgeListOptions& options,
                           AttributedGraph* out) {
  VertexIdMap ids(options.remap_ids);
  std::vector<Edge> edges;
  FAIRCLIQUE_RETURN_NOT_OK(ReadEdges(edge_path, options, &ids, &edges));
  std::vector<Attribute> attrs;
  if (!attribute_path.empty()) {
    FAIRCLIQUE_RETURN_NOT_OK(ReadAttributes(
        attribute_path,
        [&](uint64_t v64, Attribute attr, size_t line_no) {
          VertexId v;
          if (!ids.Map(v64, &v)) {
            return Status::OutOfRange("vertex id exceeds 32 bits at " +
                                      Where(attribute_path, line_no));
          }
          if (v >= attrs.size()) attrs.resize(v + 1, Attribute::kA);
          attrs[v] = attr;
          return Status::OK();
        }));
  }
  attrs.resize(ids.num_vertices(), Attribute::kA);
  *out = BuildGraph(ids.num_vertices(), edges, attrs);
  return Status::OK();
}

Status SaveEdgeList(const AttributedGraph& g, const std::string& path) {
  std::ofstream outf(path);
  if (!outf) {
    return Status::IOError("cannot open file for writing: " + path);
  }
  outf << "# fairclique edge list: " << g.num_vertices() << " vertices, "
       << g.num_edges() << " edges\n";
  for (const Edge& e : g.edges()) {
    outf << e.u << ' ' << e.v << '\n';
  }
  if (!outf) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status SaveAttributes(const AttributedGraph& g, const std::string& path) {
  std::ofstream outf(path);
  if (!outf) {
    return Status::IOError("cannot open file for writing: " + path);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    outf << v << ' ' << AttrIndex(g.attribute(v)) << '\n';
  }
  if (!outf) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status LoadMetisGraph(const std::string& path, AttributedGraph* out) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  std::string line;
  size_t line_no = 0;
  // Header.
  uint64_t n = 0, m = 0;
  int fmt = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] == '%') continue;
    std::istringstream hs(line);
    if (!(hs >> n >> m)) {
      return Status::InvalidArgument("bad METIS header at " + path + ":" +
                                     std::to_string(line_no));
    }
    if (hs >> fmt && fmt != 0) {
      return Status::InvalidArgument("weighted METIS graphs not supported (" +
                                     path + ")");
    }
    break;
  }
  if (n > std::numeric_limits<VertexId>::max() ||
      m > std::numeric_limits<EdgeId>::max()) {
    return Status::InvalidArgument("METIS header counts exceed 32 bits at " +
                                   Where(path, line_no));
  }
  GraphBuilder builder(static_cast<VertexId>(n));
  uint64_t vertex = 0;
  while (vertex < n && std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t nbr;
    while (ls >> nbr) {
      if (nbr < 1 || nbr > n) {
        return Status::OutOfRange("METIS neighbor id " + std::to_string(nbr) +
                                  " out of [1, n] at " + path + ":" +
                                  std::to_string(line_no));
      }
      builder.AddEdge(static_cast<VertexId>(vertex),
                      static_cast<VertexId>(nbr - 1));
    }
    if (!ls.eof()) {
      return Status::InvalidArgument("non-numeric METIS token at " + path +
                                     ":" + std::to_string(line_no));
    }
    ++vertex;
  }
  if (vertex != n) {
    return Status::Corruption("METIS file ended after " +
                              std::to_string(vertex) + " of " +
                              std::to_string(n) + " vertex lines (" + path +
                              ")");
  }
  AttributedGraph g = builder.Build();
  if (g.num_edges() != m) {
    // METIS counts each undirected edge once; tolerate mismatches caused by
    // duplicate listings but flag truly inconsistent headers.
    if (g.num_edges() > m) {
      return Status::Corruption("METIS header declares " + std::to_string(m) +
                                " edges but file contains " +
                                std::to_string(g.num_edges()) + " (" + path +
                                ")");
    }
  }
  *out = std::move(g);
  return Status::OK();
}

}  // namespace fairclique
