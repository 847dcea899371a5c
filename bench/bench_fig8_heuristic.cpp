// Reproduces Fig. 8: size of the fair clique found by the linear-time
// HeurRFC heuristic vs the exact maximum (MRFC) per dataset, at the
// per-dataset default (k, delta). The paper reports gaps of at most 6, with
// an exact match on DBLP.

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "core/heuristics.h"

namespace fairclique {
namespace {

void RunDataset(const DatasetSpec& spec) {
  AttributedGraph g = LoadDataset(spec.name, bench::BenchScale());
  FairnessParams params{spec.default_k, spec.default_delta};
  HeuristicResult heur = HeurRFC(g, params);
  SearchResult exact = bench::TimedSearch(
      g, FullOptions(params.k, params.delta, bench::BestBoundFor(spec.name)));
  std::printf("%-14s k=%d d=%d  HeurRFC=%3zu  MRFC=%3zu  gap=%2zd  %s\n",
              spec.name.c_str(), params.k, params.delta, heur.clique.size(),
              exact.clique.size(),
              static_cast<ssize_t>(exact.clique.size()) -
                  static_cast<ssize_t>(heur.clique.size()),
              exact.stats.completed ? "" : "(exact search INF)");
}

}  // namespace
}  // namespace fairclique

int main() {
  using namespace fairclique;
  SetLogLevel(LogLevel::kWarning);
  std::printf(
      "=== Fig. 8: fair clique sizes, HeurRFC vs exact maximum ===\n\n");
  for (const DatasetSpec& spec : StandardDatasets()) {
    RunDataset(spec);
  }
  return 0;
}
