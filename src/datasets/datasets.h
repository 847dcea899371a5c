#ifndef FAIRCLIQUE_DATASETS_DATASETS_H_
#define FAIRCLIQUE_DATASETS_DATASETS_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Deterministic synthetic stand-ins for the paper's six evaluation datasets
/// (Table I). The real graphs are downloaded from SNAP/network-repository;
/// this offline reproduction generates graphs with the same structural roles
/// at laptop/CI scale:
///
///   themarker-s  dense social network   (Chung-Lu, heavy tail, high dmax)
///   google-s     sparse web graph       (Barabasi-Albert)
///   dblp-s       collaboration network  (overlapping planted cliques)
///   flixster-s   sparse social network  (Chung-Lu, low average degree)
///   pokec-s      dense social network   (Chung-Lu, largest edge count)
///   aminer-s     collaboration network with *correlated* attributes
///                (homophily model simulating the real gender attribute)
///
/// Non-attributed stand-ins receive Bernoulli(1/2) attributes, exactly as
/// the paper does for its non-attributed datasets.
struct DatasetSpec {
  std::string name;
  /// k values swept in the reduction/search experiments, mirroring the
  /// paper's per-dataset ranges (Section VI-A, scaled to stand-in size).
  std::vector<int> k_range;
  int default_k = 3;
  int default_delta = 3;
};

/// The six stand-in specs in the paper's order.
std::vector<DatasetSpec> StandardDatasets();

/// Spec by name; aborts on unknown names.
DatasetSpec DatasetByName(const std::string& name);

/// Materializes a stand-in dataset. Deterministic per (name, scale): the
/// same graph is produced on every call. `scale` multiplies the vertex
/// count (1.0 = default CI-friendly size, ~2-6k vertices).
AttributedGraph LoadDataset(const std::string& name, double scale = 1.0);

}  // namespace fairclique

#endif  // FAIRCLIQUE_DATASETS_DATASETS_H_
