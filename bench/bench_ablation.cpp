// Ablation study (an extension, not a paper exhibit): isolates the
// contribution of each design choice the paper stacks into MaxRFC —
//   (a) reduction stages: none / EnColorfulCore only / +ColorfulSup /
//       +EnColorfulSup (the full pipeline);
//   (b) upper-bound depth: bounds applied at the component root only vs
//       also after the first vertex choice;
//   (c) heuristic starts: HeurRFC quality with 1 vs 4 vs 16 greedy starts;
//   (d) one support decomposition vs repeated per-k peeling (multi-query
//       break-even);
//   (e) branch kernel: sorted-vector vs bitset candidate sets.
// Run at each dataset's default (k, delta).

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/heuristics.h"
#include "graph/coloring.h"
#include "reduction/colorful_support.h"
#include "reduction/support_decomposition.h"

namespace fairclique {
namespace {

// Prevents the optimizer from discarding measured work.
volatile uint64_t benchmark_sink_ = 0;

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

void BoundDepthAblation(const AttributedGraph& g, const DatasetSpec& spec) {
  std::printf("-- (b) bound application depth, k=%d delta=%d --\n",
              spec.default_k, spec.default_delta);
  std::printf("%-24s %14s %12s %12s\n", "depth", "time(µs)", "nodes",
              "bound_prunes");
  for (int depth : {0, 1, 2, 4}) {
    SearchOptions options = BoundedOptions(spec.default_k, spec.default_delta,
                                           bench::BestBoundFor(spec.name));
    options.bound_depth = depth;
    SearchResult r = bench::TimedSearch(g, options);
    std::printf("depth<%-18d %14s %12llu %12llu\n", depth,
                bench::TimeCell(r).c_str(),
                static_cast<unsigned long long>(r.stats.nodes),
                static_cast<unsigned long long>(r.stats.bound_prunes));
  }
}

void DecompositionAblation(const AttributedGraph& g, const DatasetSpec& spec) {
  // One support decomposition vs repeated per-k peeling: the break-even for
  // multi-query workloads (same graph, many (k, delta) settings).
  std::printf("-- (d) per-k peeling vs one decomposition --\n");
  Coloring coloring = GreedyColoring(g);
  WallTimer per_k_timer;
  for (int k : spec.k_range) {
    EdgeReductionResult r = ColorfulSupReduction(g, coloring, k);
    benchmark_sink_ = benchmark_sink_ + r.edges_left;
  }
  int64_t per_k_us = per_k_timer.ElapsedMicros();
  WallTimer decomp_timer;
  SupportDecomposition d = ComputeColorfulSupportNumbers(g, coloring);
  int64_t decomp_us = decomp_timer.ElapsedMicros();
  WallTimer query_timer;
  for (int k : spec.k_range) {
    benchmark_sink_ = benchmark_sink_ + EdgeAliveAtK(d, k).size();
  }
  int64_t query_us = query_timer.ElapsedMicros();
  std::printf("%zu per-k peels: %lld us;  decomposition (max_k=%d): %lld us "
              "+ %lld us for the same %zu queries\n",
              spec.k_range.size(), static_cast<long long>(per_k_us), d.max_k,
              static_cast<long long>(decomp_us),
              static_cast<long long>(query_us), spec.k_range.size());
}

void EngineAblation(const AttributedGraph& g, const DatasetSpec& spec) {
  std::printf("-- (e) branch kernel: vector vs bitset --\n");
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

void HeuristicStartsAblation(const AttributedGraph& g,
                             const DatasetSpec& spec) {
  std::printf("-- (c) HeurRFC greedy starts / local search, k=%d delta=%d --\n",
              spec.default_k, spec.default_delta);
  std::printf("%-24s %10s %14s\n", "variant", "|clique|", "time(µs)");
  for (int starts : {1, 4, 16}) {
    WallTimer timer;
    HeuristicResult heur =
        HeurRFC(g, {{spec.default_k, spec.default_delta}, starts, false});
    std::printf("starts=%-17d %10zu %14lld\n", starts, heur.clique.size(),
                static_cast<long long>(timer.ElapsedMicros()));
  }
  {
    WallTimer timer;
    HeuristicResult heur =
        HeurRFC(g, {{spec.default_k, spec.default_delta}, 1, true});
    std::printf("%-24s %10zu %14lld\n", "starts=1 + local search",
                heur.clique.size(),
                static_cast<long long>(timer.ElapsedMicros()));
  }
}

void OrderingAblation(const AttributedGraph& g, const DatasetSpec& spec) {
  std::printf("-- (f) branch ordering, k=%d delta=%d --\n", spec.default_k,
              spec.default_delta);
  std::printf("%-24s %14s %12s\n", "ordering", "time(µs)", "nodes");
  struct Row {
    const char* name;
    BranchOrder order;
  };
  for (const Row& row : {Row{"colorful core (paper)",
                             BranchOrder::kColorfulCore},
                         Row{"degeneracy", BranchOrder::kDegeneracy},
                         Row{"ascending degree", BranchOrder::kDegree}}) {
    SearchOptions options = BoundedOptions(spec.default_k, spec.default_delta,
                                           bench::BestBoundFor(spec.name));
    options.order = row.order;
    SearchResult r = bench::TimedSearch(g, options);
    std::printf("%-24s %14s %12llu\n", row.name, bench::TimeCell(r).c_str(),
                static_cast<unsigned long long>(r.stats.nodes));
  }
}

}  // namespace
}  // namespace fairclique

int main() {
  using namespace fairclique;
  SetLogLevel(LogLevel::kWarning);
  std::printf("=== Ablation: reductions, bound depth, heuristic starts ===\n\n");
  for (const char* name : {"themarker-s", "dblp-s", "aminer-s"}) {
    DatasetSpec spec = DatasetByName(name);
    AttributedGraph g = LoadDataset(spec.name, bench::BenchScale());
    std::printf("## %s (|V|=%u |E|=%u)\n", spec.name.c_str(), g.num_vertices(),
                g.num_edges());
    ReductionAblation(g, spec);
    BoundDepthAblation(g, spec);
    HeuristicStartsAblation(g, spec);
    DecompositionAblation(g, spec);
    EngineAblation(g, spec);
    OrderingAblation(g, spec);
    std::printf("\n");
  }
  return 0;
}
