// Reference answer sizes that share no code with the search under test.
//
// Every clique is a subset of a clique that cannot be grown within its
// candidate set, and a subset of a clique is a clique. So the largest fair
// clique of a graph is the largest fair subset of some clique, and a clique
// with a vertices of attribute A and b of attribute B holds a fair subset of
// m + min(M, m + delta) vertices when m = min(a, b) >= k (M = max(a, b)).
// CliqueProfile therefore records the Pareto frontier of (a, b) over all
// cliques, by a Bron–Kerbosch enumeration with Tomita pivoting over a
// degeneracy order of its own, pruning every branch whose best possible
// counts are already dominated. One profile answers every (k, delta) of a
// graph. Only the graph's adjacency and attribute accessors are used: no
// reduction, colouring, bound or branch code of the library.
#ifndef FAIRCLIQUE_PERFBENCH_ORACLE_H_
#define FAIRCLIQUE_PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

class CliqueProfile {
 public:
  explicit CliqueProfile(const fairclique::AttributedGraph& g);

  /// Size of a maximum fair clique for (k, delta); 0 when none exists.
  size_t MaxFairSize(int k, int delta) const;

 private:
  // best_b_[a]: the largest b over recorded cliques with at least a
  // vertices of attribute A (a suffix maximum, so dominance is one lookup).
  std::vector<int64_t> best_b_;
  // max_b_[a]: the largest b over recorded cliques with exactly a.
  std::vector<int64_t> max_b_;

  friend class CliqueSearch;
};

}  // namespace perfbench

#endif  // FAIRCLIQUE_PERFBENCH_ORACLE_H_
