// Ablation study (an extension, not a paper exhibit): isolates the
// contribution of the design choices a query can still select —
//   (a) reduction stages: none / EnColorfulCore only / +ColorfulSup /
//       +EnColorfulSup (the full pipeline);
//   (b) branch kernel: sorted-vector vs bitset candidate sets.
// The branch order (CalColorOD), the colouring order (degree-descending),
// the bound placement (once per component, at its root) and HeurRFC's
// single greedy start are fixed, so they have no section. Run at each
// dataset's default (k, delta); FAIRCLIQUE_BENCH_SCALE shrinks the graphs.

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"

namespace fairclique {
namespace {

void ReductionAblation(const AttributedGraph& g, const DatasetSpec& spec) {
  struct Row {
    const char* name;
    ReductionOptions reductions;
  };
  const Row rows[] = {
      {"no reductions", {false, false, false}},
      {"EnColorfulCore", {true, false, false}},
      {"+ColorfulSup", {true, true, false}},
      {"+EnColorfulSup (full)", {true, true, true}},
  };
  std::printf("-- (a) reduction stages, k=%d delta=%d --\n", spec.default_k,
              spec.default_delta);
  std::printf("%-24s %14s %12s %10s %10s\n", "pipeline", "time(µs)", "nodes",
              "red|V|", "red|E|");
  for (const Row& row : rows) {
    SearchOptions options = BoundedOptions(spec.default_k, spec.default_delta,
                                           bench::BestBoundFor(spec.name));
    options.reductions = row.reductions;
    SearchResult r = bench::TimedSearch(g, options);
    VertexId rv = g.num_vertices();
    EdgeId re = g.num_edges();
    if (!r.stats.reduction_stages.empty()) {
      rv = r.stats.reduction_stages.back().vertices_left;
      re = r.stats.reduction_stages.back().edges_left;
    }
    std::printf("%-24s %14s %12llu %10u %10u\n", row.name,
                bench::TimeCell(r).c_str(),
                static_cast<unsigned long long>(r.stats.nodes), rv, re);
  }
}

void EngineAblation(const AttributedGraph& g, const DatasetSpec& spec) {
  std::printf("-- (b) branch kernel: vector vs bitset --\n");
  std::printf("%-24s %14s %12s\n", "engine", "time(µs)", "nodes");
  for (SearchEngine engine : {SearchEngine::kVector, SearchEngine::kBitset}) {
    SearchOptions options = BoundedOptions(spec.default_k, spec.default_delta,
                                           bench::BestBoundFor(spec.name));
    options.engine = engine;
    SearchResult r = bench::TimedSearch(g, options);
    std::printf("%-24s %14s %12llu\n",
                engine == SearchEngine::kVector ? "vector" : "bitset",
                bench::TimeCell(r).c_str(),
                static_cast<unsigned long long>(r.stats.nodes));
  }
}

}  // namespace
}  // namespace fairclique

int main() {
  using namespace fairclique;
  SetLogLevel(LogLevel::kWarning);
  std::printf(
      "=== Ablation: reductions, branch kernel ===\n\n");
  for (const char* name : {"themarker-s", "dblp-s", "aminer-s"}) {
    DatasetSpec spec = DatasetByName(name);
    AttributedGraph g = LoadDataset(spec.name, bench::BenchScale());
    std::printf("## %s (|V|=%u |E|=%u)\n", spec.name.c_str(), g.num_vertices(),
                g.num_edges());
    ReductionAblation(g, spec);
    EngineAblation(g, spec);
    std::printf("\n");
  }
  return 0;
}
