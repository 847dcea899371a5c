#ifndef FAIRCLIQUE_GRAPH_GENERATORS_H_
#define FAIRCLIQUE_GRAPH_GENERATORS_H_

#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Synthetic graph generators. All are deterministic given the Rng seed and
/// produce attribute-less graphs (every vertex kA); combine with the
/// Assign*Attributes functions below. They are the substitution for the
/// paper's six downloaded datasets (see datasets/datasets.h).

/// G(n, p): every pair independently an edge with probability p. Uses
/// geometric skipping, O(n + m) expected.
AttributedGraph ErdosRenyi(VertexId n, double p, Rng& rng);

/// G(n, m): exactly m distinct edges sampled uniformly (m capped at C(n,2)).
AttributedGraph GnM(VertexId n, uint64_t m, Rng& rng);

/// Chung-Lu model with power-law expected degrees: weight of vertex i is
/// proportional to (i + i0)^(-1/(exponent-1)), scaled so the expected average
/// degree is `avg_degree`. Produces heavy-tailed degree distributions like
/// the paper's social networks (Themarker, Flixster, Pokec).
AttributedGraph ChungLuPowerLaw(VertexId n, double avg_degree, double exponent,
                                Rng& rng);

/// Barabasi-Albert preferential attachment: each new vertex attaches to
/// `edges_per_vertex` existing vertices. Web-like (Google stand-in).
AttributedGraph BarabasiAlbert(VertexId n, uint32_t edges_per_vertex, Rng& rng);

/// Options for overlapping planted cliques on top of a sparse background.
/// Collaboration-network stand-in (DBLP/Aminer): many small near-cliques with
/// occasional large ones.
struct PlantedCliqueOptions {
  VertexId num_vertices = 1000;
  double background_edge_prob = 0.002;
  uint32_t num_cliques = 60;
  uint32_t min_clique_size = 4;
  uint32_t max_clique_size = 12;
};
AttributedGraph PlantedCliqueGraph(const PlantedCliqueOptions& options,
                                   Rng& rng);

/// Adds all pairwise edges among `size` vertices chosen from g, returning the
/// rebuilt graph and the chosen member set. When
/// `balanced` is true the members are chosen to split evenly between the two
/// attributes (|#a - #b| <= 1), guaranteeing a relative fair clique of this
/// size for k <= floor(size/2) and any delta >= size % 2. Used by tests and
/// by the case-study examples to plant ground truth.
AttributedGraph PlantClique(const AttributedGraph& g, uint32_t size,
                            bool balanced, Rng& rng,
                            std::vector<VertexId>* members);

/// The 15-vertex example graph of the paper's Fig. 1 (vertices v1..v15 map to
/// ids 0..14). Wired to satisfy the paper's Examples 1-2: the maximum
/// (3,1)-relative fair clique has 7 vertices — the right 8-clique
/// {v7,v8,v10..v15} minus any one of v11..v15.
AttributedGraph PaperFigure1Graph();

/// Assigns each vertex attribute kA with probability `p_a`, independently
/// (the paper's procedure for non-attributed datasets).
AttributedGraph AssignAttributesBernoulli(const AttributedGraph& g, double p_a,
                                          Rng& rng);

/// Correlated (homophily) attribute model simulating real attributes such as
/// Aminer's gender field: seeds each connected region via a random walk so
/// that neighbors agree with probability `homophily`, and the overall
/// fraction of kA is approximately `frac_a`. Substitution for the real
/// attributed Aminer dataset (aminer-s in datasets/datasets.h).
AttributedGraph AssignAttributesHomophily(const AttributedGraph& g,
                                          double frac_a, double homophily,
                                          Rng& rng);

/// Uniformly samples `fraction` of the vertices and returns the induced
/// subgraph (scalability experiment, Fig. 9 "vary n").
AttributedGraph SampleVertices(const AttributedGraph& g, double fraction,
                               Rng& rng);

/// Uniformly samples `fraction` of the edges, keeping all vertices
/// (scalability experiment, Fig. 9 "vary m").
AttributedGraph SampleEdges(const AttributedGraph& g, double fraction,
                            Rng& rng);

/// Uniformly samples `count` distinct non-edges of g (normalized u < v, no
/// particular order). Rejection-sampled, so intended for sparse graphs;
/// `count` is capped at the number of non-edges. Used to drive dynamic-graph
/// update streams in benchmarks and tests.
std::vector<Edge> SampleNonEdges(const AttributedGraph& g, size_t count,
                                 Rng& rng);

}  // namespace fairclique

#endif  // FAIRCLIQUE_GRAPH_GENERATORS_H_
