// Extension bench (not a paper exhibit): cost and answer sizes across the
// fairness-model family on every stand-in dataset —
//   plain maximum clique        (no fairness; the classical baseline)
//   weak fair    (counts >= k)
//   relative fair (counts >= k, diff <= delta; the paper's model)
//   strong fair  (counts equal, >= k)
// Quantifies what each fairness constraint costs on top of the previous one.

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/fair_variants.h"
#include "core/max_clique.h"

namespace fairclique {
namespace {

void RunDataset(const DatasetSpec& spec) {
  AttributedGraph g = LoadDataset(spec.name, bench::BenchScale());
  const int k = spec.default_k;
  const int delta = spec.default_delta;
  ExtraBound best = bench::BestBoundFor(spec.name);
  std::printf("## %s (|V|=%u |E|=%u, k=%d delta=%d)\n", spec.name.c_str(),
              g.num_vertices(), g.num_edges(), k, delta);
  std::printf("%-26s %8s %8s %8s %12s\n", "model", "size", "cnt(a)", "cnt(b)",
              "micros");

  {
    WallTimer t;
    MaxCliqueResult mc = FindMaximumClique(g, /*node_limit=*/50'000'000);
    AttrCounts cnt;
    for (VertexId v : mc.clique) cnt[g.attribute(v)]++;
    std::printf("%-26s %8zu %8lld %8lld %12lld%s\n", "maximum clique",
                mc.clique.size(), static_cast<long long>(cnt.a()),
                static_cast<long long>(cnt.b()),
                static_cast<long long>(t.ElapsedMicros()),
                mc.completed ? "" : " (INF)");
  }
  {
    SearchResult r = FindMaximumWeakFairClique(g, k, best);
    std::printf("%-26s %8zu %8lld %8lld %12lld\n", "weak fair", r.clique.size(),
                static_cast<long long>(r.clique.attr_counts.a()),
                static_cast<long long>(r.clique.attr_counts.b()),
                static_cast<long long>(r.stats.total_micros));
  }
  {
    SearchResult r = bench::TimedSearch(g, FullOptions(k, delta, best));
    std::printf("%-26s %8zu %8lld %8lld %12s\n", "relative fair",
                r.clique.size(),
                static_cast<long long>(r.clique.attr_counts.a()),
                static_cast<long long>(r.clique.attr_counts.b()),
                bench::TimeCell(r).c_str());
  }
  {
    SearchResult r = FindMaximumStrongFairClique(g, k, best);
    std::printf("%-26s %8zu %8lld %8lld %12lld\n", "strong fair",
                r.clique.size(),
                static_cast<long long>(r.clique.attr_counts.a()),
                static_cast<long long>(r.clique.attr_counts.b()),
                static_cast<long long>(r.stats.total_micros));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace fairclique

int main() {
  using namespace fairclique;
  SetLogLevel(LogLevel::kWarning);
  std::printf("=== Fairness-model family: sizes and costs ===\n\n");
  for (const DatasetSpec& spec : StandardDatasets()) {
    RunDataset(spec);
  }
  return 0;
}
