// bench_service: throughput of the concurrent query service (src/service)
// on a dataset graph, cold (every query searches) vs. cached (repeat
// queries hit the LRU), at 1/4/8 executor workers — plus the staged-plan
// win: a delta/bound sweep on one (graph, k) through the PreparedGraphCache
// reduces once instead of per query.
//
// Also differentially checks the service against the library: every
// response size must equal the sequential FindMaximumFairClique answer for
// the same options. Exits non-zero when sizes mismatch, when the
// result-cached speedup falls below 10x, or when the prepared-plan
// delta-sweep speedup (median of 5 alternating passes per side) falls below
// 3x, so CI can assert both serving wins.
//
// Emits BENCH_service.json with throughput plus p50/p95/p99/mean latency
// for the three serving tiers: cold (reduce + branch), prepared-cache hit
// (branch only), result-cache hit (lookup only).
//
// Env: FAIRCLIQUE_BENCH_SCALE (dataset scale), FAIRCLIQUE_BENCH_TIMEOUT
// (per-search budget, default 5 s).

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bitset_simd.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/max_fair_clique.h"
#include "core/prepared_graph.h"
#include "datasets/datasets.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "service/graph_registry.h"
#include "service/prepared_graph_cache.h"
#include "service/query_executor.h"
#include "service/result_cache.h"

namespace fairclique {
namespace {

using bench::AppendLatencyMetrics;
using bench::BenchScale;
using bench::BenchTimeout;
using bench::ComputePercentiles;
using bench::LatencyPercentiles;

struct QuerySpec {
  std::string label;
  SearchOptions options;
};

std::vector<QuerySpec> QueryMix() {
  std::vector<QuerySpec> mix;
  auto add = [&mix](std::string label, SearchOptions options) {
    options.time_limit_seconds = BenchTimeout();
    mix.push_back({std::move(label), options});
  };
  add("baseline k=2 d=2", BaselineOptions(2, 2));
  add("baseline k=3 d=1", BaselineOptions(3, 1));
  add("bounded  k=3 d=2", BoundedOptions(3, 2, ExtraBound::kColorfulPath));
  add("bounded  k=4 d=2", BoundedOptions(4, 2, ExtraBound::kColorfulDegeneracy));
  add("full     k=3 d=1", FullOptions(3, 1, ExtraBound::kColorfulPath));
  add("full     k=4 d=3", FullOptions(4, 3, ExtraBound::kColorfulPath));
  return mix;
}

/// The delta-sweep workload: >= 8 distinct delta/bound option sets on one
/// (graph, k), so every query shares a single PreparedGraph. Same shape as
/// a user exploring the fairness/size trade-off on a fixed population.
std::vector<QuerySpec> DeltaSweepMix() {
  std::vector<QuerySpec> mix;
  auto add = [&mix](std::string label, SearchOptions options) {
    options.time_limit_seconds = BenchTimeout();
    mix.push_back({std::move(label), options});
  };
  for (int delta = 0; delta <= 4; ++delta) {
    add("bounded k=3 d=" + std::to_string(delta) + " cp",
        BoundedOptions(3, delta, ExtraBound::kColorfulPath));
  }
  add("bounded k=3 d=2 cd", BoundedOptions(3, 2, ExtraBound::kColorfulDegeneracy));
  add("baseline k=3 d=3", BaselineOptions(3, 3));
  add("full k=3 d=1 cp", FullOptions(3, 1, ExtraBound::kColorfulPath));
  return mix;
}

/// Submits `rounds` copies of the mix and returns queries/second; appends
/// each response's run_micros to `latencies_us` when non-null.
double RunRounds(QueryExecutor& executor,
                 const std::shared_ptr<const RegisteredGraph>& graph,
                 const std::vector<QuerySpec>& mix, int rounds,
                 bool bypass_cache,
                 const std::vector<size_t>& expected_sizes,
                 bool* sizes_match,
                 std::vector<double>* latencies_us = nullptr) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(mix.size() * static_cast<size_t>(rounds));
  WallTimer timer;
  for (int r = 0; r < rounds; ++r) {
    for (const QuerySpec& spec : mix) {
      QueryRequest request;
      request.graph = graph;
      request.options = spec.options;
      request.bypass_cache = bypass_cache;
      futures.push_back(executor.Submit(std::move(request)));
    }
  }
  size_t i = 0;
  for (auto& future : futures) {
    QueryResponse response = future.get();
    const size_t expected = expected_sizes[i++ % mix.size()];
    if (!response.status.ok() || response.result == nullptr ||
        response.result->clique.size() != expected) {
      *sizes_match = false;
    }
    // The latency collector feeds the "result-cache-hit" tier: guard on
    // cache_hit so a stray miss (eviction, race) cannot put a
    // millisecond-scale full search into a microsecond-scale tail.
    if (latencies_us != nullptr && response.status.ok() &&
        response.cache_hit) {
      latencies_us->push_back(static_cast<double>(response.run_micros));
    }
  }
  double seconds = timer.ElapsedSeconds();
  return seconds > 0 ? static_cast<double>(futures.size()) / seconds : 0.0;
}

/// Runs the sweep synchronously (one executor.Run per spec), verifying each
/// answer against `expected_sizes`; returns total micros and collects
/// per-query latencies. With `hit_latencies_only` the query that cold-built
/// the plan stays out of the sample: it is a build, and one build among 8
/// samples would otherwise BE the reported p95/p99 of the "hit" tier.
int64_t RunSweep(QueryExecutor& executor,
                 const std::shared_ptr<const RegisteredGraph>& graph,
                 const std::vector<QuerySpec>& mix, bool fully_cold,
                 const std::vector<size_t>& expected_sizes, bool* sizes_match,
                 std::vector<double>* latencies_us, bool hit_latencies_only,
                 size_t* prepared_hits) {
  WallTimer timer;
  for (size_t i = 0; i < mix.size(); ++i) {
    QueryRequest request;
    request.graph = graph;
    request.options = mix[i].options;
    request.bypass_cache = true;  // measure the Branch stage, not the LRU
    request.bypass_prepared_cache = fully_cold;
    QueryResponse response = executor.Run(request);
    if (!response.status.ok() || response.result == nullptr ||
        response.result->clique.size() != expected_sizes[i]) {
      *sizes_match = false;
    }
    if (latencies_us != nullptr && response.status.ok() &&
        (!hit_latencies_only || response.prepared_hit)) {
      latencies_us->push_back(static_cast<double>(response.run_micros));
    }
    if (prepared_hits != nullptr && response.prepared_hit) ++*prepared_hits;
  }
  return timer.ElapsedMicros();
}

}  // namespace
}  // namespace fairclique

int main() {
  using namespace fairclique;
  SetLogLevel(LogLevel::kWarning);

  const std::string dataset = "dblp-s";
  GraphRegistry registry;
  Status status = registry.Add(dataset, LoadDataset(dataset, BenchScale()),
                               "dataset:" + dataset);
  if (!status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto graph = registry.Get(dataset);
  std::vector<QuerySpec> mix = QueryMix();

  std::printf("bench_service: %s (%u vertices, %u edges), %zu-query mix\n",
              dataset.c_str(), graph->graph->num_vertices(),
              graph->graph->num_edges(), mix.size());

  // Sequential ground truth, once per distinct query.
  std::vector<size_t> expected_sizes;
  for (const QuerySpec& spec : mix) {
    SearchResult r = FindMaximumFairClique(*graph->graph, spec.options);
    expected_sizes.push_back(r.clique.size());
    std::printf("  %s -> size %zu (%.1f ms sequential)\n", spec.label.c_str(),
                r.clique.size(),
                static_cast<double>(r.stats.total_micros) / 1000.0);
  }

  const int kColdRounds = 3;
  const int kWarmRounds = 50;
  bool sizes_match = true;
  bool speedup_ok = false;
  std::vector<std::pair<std::string, double>> json_metrics;
  std::vector<double> result_hit_latencies;

  std::printf("\n%8s %14s %14s %10s\n", "workers", "cold q/s", "cached q/s",
              "speedup");
  for (int workers : {1, 4, 8}) {
    ResultCache cache(128);
    QueryExecutor executor(ExecutorOptions{workers, 4096}, &cache);
    double cold_qps = RunRounds(executor, graph, mix, kColdRounds,
                                /*bypass_cache=*/true, expected_sizes,
                                &sizes_match);
    // Prime the cache, then measure pure repeat-query throughput.
    RunRounds(executor, graph, mix, 1, /*bypass_cache=*/false, expected_sizes,
              &sizes_match);
    double warm_qps = RunRounds(executor, graph, mix, kWarmRounds,
                                /*bypass_cache=*/false, expected_sizes,
                                &sizes_match, &result_hit_latencies);
    double speedup = cold_qps > 0 ? warm_qps / cold_qps : 0.0;
    if (speedup >= 10.0) speedup_ok = true;
    std::printf("%8d %14.1f %14.1f %9.1fx\n", workers, cold_qps, warm_qps,
                speedup);
    std::string suffix = "_w" + std::to_string(workers);
    json_metrics.emplace_back("cold_qps" + suffix, cold_qps);
    json_metrics.emplace_back("cached_qps" + suffix, warm_qps);
    json_metrics.emplace_back("speedup" + suffix, speedup);
    ExecutorMetrics m = executor.metrics();
    std::printf("         served=%llu cache_hits=%llu rejected=%llu "
                "peak_queue=%zu\n",
                static_cast<unsigned long long>(m.served),
                static_cast<unsigned long long>(m.cache_hits),
                static_cast<unsigned long long>(m.rejected),
                m.peak_queue_depth);
  }

  // ------------------------------------------- instrumentation overhead
  // The telemetry hot-path cost on the cheapest serving tier (result-cache
  // hits): cached q/s with recording globally disabled vs. enabled. The
  // synchronous Run() path exercises the identical PreSearch +
  // RecordTelemetry instrumentation without the worker-pool handoff, whose
  // context switches on a loaded (or single-core CI) machine add far more
  // jitter than the few dozen nanoseconds being measured. Each short trial
  // runs both sides back to back, alternating which goes first, and yields
  // one on/off ratio; the overhead is read from the median ratio, so a
  // burst of load from other processes spoils a few trials, not the
  // estimate. The bench is its own control (the repo carries no committed
  // baseline numbers).
  constexpr int kOverheadTrials = 41;
  constexpr int kOverheadIters = 1500;  // x |mix| cached hits per side
  double obs_on_qps = 0.0, obs_off_qps = 0.0, obs_ratio = 1.0;
  {
    ResultCache obs_cache(128);
    QueryExecutor obs_executor(ExecutorOptions{1, 64}, &obs_cache);
    auto run_hits = [&](int iters) {
      WallTimer obs_timer;
      size_t served_hits = 0;
      for (int i = 0; i < iters; ++i) {
        for (size_t q = 0; q < mix.size(); ++q) {
          QueryRequest request;
          request.graph = graph;
          request.options = mix[q].options;
          QueryResponse response = obs_executor.Run(request);
          if (!response.status.ok() || response.result == nullptr ||
              response.result->clique.size() != expected_sizes[q]) {
            sizes_match = false;
          }
          served_hits += response.cache_hit ? 1 : 0;
        }
      }
      double seconds = obs_timer.ElapsedSeconds();
      return seconds > 0 ? static_cast<double>(served_hits) / seconds : 0.0;
    };
    auto run_side = [&](bool enabled) {
      obs::SetEnabled(enabled);
      return run_hits(kOverheadIters);
    };
    run_hits(1);  // prime the cache (these are misses, excluded from qps)
    std::vector<double> on_qps, off_qps, ratios;
    for (int trial = 0; trial < kOverheadTrials; ++trial) {
      double on = 0.0, off = 0.0;
      if (trial % 2 == 0) {
        off = run_side(false);
        on = run_side(true);
      } else {
        on = run_side(true);
        off = run_side(false);
      }
      on_qps.push_back(on);
      off_qps.push_back(off);
      if (off > 0) ratios.push_back(on / off);
    }
    obs::SetEnabled(true);
    obs_on_qps = ComputePercentiles(on_qps).p50;
    obs_off_qps = ComputePercentiles(off_qps).p50;
    if (!ratios.empty()) obs_ratio = ComputePercentiles(ratios).p50;
  }
  double overhead_pct = (1.0 - obs_ratio) * 100.0;
  bool overhead_ok = obs_ratio >= 0.95;
  std::printf("\ninstrumentation overhead on cached hits:\n");
  std::printf("  telemetry off: %10.1f q/s (median of %d trials)\n",
              obs_off_qps, kOverheadTrials);
  std::printf("  telemetry on:  %10.1f q/s (median on/off ratio: %.2f%% "
              "overhead, < 5%% required)\n",
              obs_on_qps, overhead_pct);
  json_metrics.emplace_back("cached_qps_obs_off", obs_off_qps);
  json_metrics.emplace_back("cached_qps_obs_on", obs_on_qps);
  json_metrics.emplace_back("instrumentation_overhead_pct", overhead_pct);
  // The cached-hit path records exactly one journal event per serve, so
  // this also documents how much ring the overhead run chews through.
  json_metrics.emplace_back(
      "journal_events_recorded",
      static_cast<double>(obs::EventJournal::Default().recorded()));

  // ---------------------------------------------- progress-hook overhead
  // The live-progress hooks ride the branch kernels' existing 1024-node
  // deadline-check cadence (one relaxed fetch_add per kilonode). Measure a
  // prepared Branch stage with a QueryProgress attached vs. without, best
  // of 3 interleaved trials. Reported for trend-watching, not gated: a
  // single branch run's jitter sits orders of magnitude above the hook
  // cost, so a hard assertion here would only flake.
  {
    SearchOptions hook_options = mix[0].options;
    std::shared_ptr<const PreparedGraph> hook_plan = PrepareGraph(
        *graph->graph, hook_options.params.k, hook_options.reductions);
    obs::QueryProgress hook_progress(1, graph->name, "",
                                     hook_plan->components.size());
    double best_plain_s = 0.0, best_hooked_s = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      hook_options.progress = nullptr;
      WallTimer plain_timer;
      SearchPreparedGraph(*graph->graph, *hook_plan, hook_options);
      double plain = plain_timer.ElapsedSeconds();
      hook_options.progress = &hook_progress;
      WallTimer hooked_timer;
      SearchPreparedGraph(*graph->graph, *hook_plan, hook_options);
      double hooked = hooked_timer.ElapsedSeconds();
      if (trial == 0 || plain < best_plain_s) best_plain_s = plain;
      if (trial == 0 || hooked < best_hooked_s) best_hooked_s = hooked;
    }
    double progress_pct =
        best_plain_s > 0 ? (best_hooked_s / best_plain_s - 1.0) * 100.0 : 0.0;
    std::printf("\nprogress-hook overhead on a prepared branch stage:\n");
    std::printf("  hooks off: %8.1f ms    hooks on: %8.1f ms (%+.2f%%)\n",
                best_plain_s * 1e3, best_hooked_s * 1e3, progress_pct);
    json_metrics.emplace_back("progress_hook_overhead_pct", progress_pct);
  }

  // ------------------------------------------- SIMD branch-kernel speedup
  // The cold serving tier is the branch stage; since PR 8 its bitset engine
  // runs on runtime-dispatched SIMD kernels. Self-controlled comparison:
  // the same prepared Branch stage with the kernel pinned to scalar vs.
  // dispatched, interleaved best-of-3. Gated only when a vector variant
  // actually dispatched (kernel_simd_active), so force-scalar CI legs and
  // machines without AVX2/NEON still pass.
  double kernel_speedup = 1.0;
  bool kernel_simd_active = std::string(simd::ActiveName()) != "scalar";
  bool kernel_ok = true;
  {
    std::vector<std::shared_ptr<const PreparedGraph>> kernel_plans;
    std::vector<SearchOptions> kernel_opts;
    for (const QuerySpec& spec : mix) {
      SearchOptions o = spec.options;
      o.engine = SearchEngine::kBitset;  // the kernel under test
      kernel_opts.push_back(o);
      kernel_plans.push_back(
          PrepareGraph(*graph->graph, o.params.k, o.reductions));
    }
    auto run_branches = [&](const char* kernel) {
      simd::SetKernelOverride(kernel);
      WallTimer t;
      for (size_t q = 0; q < kernel_opts.size(); ++q) {
        SearchResult r = SearchPreparedGraph(*graph->graph, *kernel_plans[q],
                                             kernel_opts[q]);
        if (r.clique.size() != expected_sizes[q]) sizes_match = false;
      }
      double micros = static_cast<double>(t.ElapsedMicros());
      simd::SetKernelOverride(nullptr);
      return micros;
    };
    run_branches("scalar");  // warm plans and pages for both sides
    run_branches(nullptr);
    double best_scalar = 0.0, best_simd = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      double s = run_branches("scalar");
      double d = run_branches(nullptr);
      if (trial == 0 || s < best_scalar) best_scalar = s;
      if (trial == 0 || d < best_simd) best_simd = d;
    }
    kernel_speedup = best_simd > 0 ? best_scalar / best_simd : 0.0;
    kernel_ok = !kernel_simd_active || kernel_speedup >= 1.10;
    std::printf("\ncold branch stage, scalar vs dispatched kernels (%s):\n",
                simd::ActiveName());
    std::printf("  scalar:     %8.1f ms\n", best_scalar / 1000.0);
    std::printf("  dispatched: %8.1f ms (%.2fx%s)\n", best_simd / 1000.0,
                kernel_speedup,
                kernel_simd_active ? ", >= 1.10x required" : ", not gated");
    json_metrics.emplace_back("kernel_simd_active",
                              kernel_simd_active ? 1.0 : 0.0);
    json_metrics.emplace_back("cold_branch_scalar_micros", best_scalar);
    json_metrics.emplace_back("cold_branch_simd_micros", best_simd);
    json_metrics.emplace_back("cold_kernel_speedup", kernel_speedup);
  }

  // ------------------------------------------------------------ delta sweep
  // Same graph and k, 8 distinct delta/bound option sets. Cold pays the
  // reduction pipeline per query; through the PreparedGraphCache the sweep
  // reduces once and every query branches on the shared plan.
  std::vector<QuerySpec> sweep = DeltaSweepMix();
  std::vector<size_t> sweep_expected;
  for (const QuerySpec& spec : sweep) {
    sweep_expected.push_back(
        FindMaximumFairClique(*graph->graph, spec.options).clique.size());
  }

  // Both sides are timed over kSweepPasses alternating passes and gated on
  // their medians, so one slow query cannot decide the gate. Each prepared
  // pass gets a fresh PreparedGraphCache: it pays one build, and the other
  // |sweep|-1 queries must hit that plan.
  constexpr int kSweepPasses = 5;
  std::vector<double> cold_latencies;
  std::vector<double> prepared_latencies;
  std::vector<int64_t> cold_passes;
  std::vector<int64_t> prepared_passes;
  size_t prepared_hits = sweep.size();  // fewest hits in any prepared pass
  for (int pass = 0; pass < kSweepPasses; ++pass) {
    PreparedGraphCache prepared_cache(8);
    QueryExecutor sweep_executor(ExecutorOptions{1, 64}, nullptr,
                                 &prepared_cache);
    cold_passes.push_back(
        RunSweep(sweep_executor, graph, sweep, /*fully_cold=*/true,
                 sweep_expected, &sizes_match, &cold_latencies,
                 /*hit_latencies_only=*/false, nullptr));
    size_t hits = 0;
    prepared_passes.push_back(
        RunSweep(sweep_executor, graph, sweep, /*fully_cold=*/false,
                 sweep_expected, &sizes_match, &prepared_latencies,
                 /*hit_latencies_only=*/true, &hits));
    prepared_hits = std::min(prepared_hits, hits);
  }
  auto median = [](std::vector<int64_t> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const int64_t cold_micros = median(cold_passes);
  const int64_t prepared_micros = median(prepared_passes);
  double sweep_speedup =
      prepared_micros > 0
          ? static_cast<double>(cold_micros) / static_cast<double>(prepared_micros)
          : 0.0;
  bool prepared_hits_ok = prepared_hits >= sweep.size() - 1;
  bool sweep_ok = sweep_speedup >= 3.0;

  std::printf("\ndelta sweep (%zu option sets, same graph and k, median of "
              "%d passes):\n",
              sweep.size(), kSweepPasses);
  std::printf("  cold (reduce per query):   %8.1f ms total\n",
              static_cast<double>(cold_micros) / 1000.0);
  std::printf("  prepared-cache (1 reduce): %8.1f ms total (>= %zu plan hits "
              "per pass)\n",
              static_cast<double>(prepared_micros) / 1000.0, prepared_hits);
  std::printf("  sweep speedup: %.1fx (>= 3x required)\n", sweep_speedup);

  LatencyPercentiles cold_p = ComputePercentiles(cold_latencies);
  LatencyPercentiles prep_p = ComputePercentiles(prepared_latencies);
  LatencyPercentiles hit_p = ComputePercentiles(result_hit_latencies);
  std::printf("\nlatency (us)        %10s %10s %10s %10s\n", "p50", "p95",
              "p99", "mean");
  std::printf("  cold              %10.0f %10.0f %10.0f %10.0f\n", cold_p.p50,
              cold_p.p95, cold_p.p99, cold_p.mean);
  std::printf("  prepared-hit      %10.0f %10.0f %10.0f %10.0f\n", prep_p.p50,
              prep_p.p95, prep_p.p99, prep_p.mean);
  std::printf("  result-cache-hit  %10.0f %10.0f %10.0f %10.0f\n", hit_p.p50,
              hit_p.p95, hit_p.p99, hit_p.mean);

  json_metrics.emplace_back("sweep_cold_micros",
                            static_cast<double>(cold_micros));
  json_metrics.emplace_back("sweep_prepared_micros",
                            static_cast<double>(prepared_micros));
  json_metrics.emplace_back("sweep_speedup", sweep_speedup);
  AppendLatencyMetrics(&json_metrics, "cold", cold_p);
  AppendLatencyMetrics(&json_metrics, "prepared_hit", prep_p);
  AppendLatencyMetrics(&json_metrics, "result_hit", hit_p);

  std::printf("\nconcurrent sizes match sequential: %s\n",
              sizes_match ? "yes" : "NO");
  std::printf("cached speedup >= 10x: %s\n", speedup_ok ? "yes" : "NO");
  std::printf("prepared delta-sweep speedup >= 3x: %s\n",
              sweep_ok ? "yes" : "NO");
  std::printf("prepared plan reused across sweep: %s\n",
              prepared_hits_ok ? "yes" : "NO");
  std::printf("instrumentation overhead < 5%%: %s\n",
              overhead_ok ? "yes" : "NO");
  std::printf("SIMD kernel speeds up cold branch stage: %s\n",
              kernel_ok ? "yes" : "NO");
  bench::EmitBenchJson("service", json_metrics);
  return (sizes_match && speedup_ok && sweep_ok && prepared_hits_ok &&
          overhead_ok && kernel_ok)
             ? 0
             : 1;
}
