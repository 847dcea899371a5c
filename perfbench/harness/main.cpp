// perfbench_harness: the repository benchmark. Runs one workload for a
// given time, checks every answer, and prints one JSON result line last:
//
//   perfbench_harness --workload cold-reduce|cold-branch|serve-mixed
//                     --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics (and writes the span file).
// Exits 1 when any answer is wrong, 2 on bad usage or set-up failure.
// perfbench/run.py builds this binary and is the usual entry point.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/logging.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::RunResult;

// Every per-layer metric, reported by every workload (0 where a workload
// does not exercise the layer). perfbench/README.md defines each one.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"graph.coloring_ms", "ms"},
    {"reduction.en_colorful_core_ms", "ms"},
    {"reduction.colorful_sup_ms", "ms"},
    {"reduction.support_table_ms", "ms"},
    {"reduction.en_colorful_sup_ms", "ms"},
    {"reduction.materialize_ms", "ms"},
    {"reduction.en_colorful_core.edges_kept_ratio", "ratio"},
    {"reduction.colorful_sup.edges_kept_ratio", "ratio"},
    {"reduction.en_colorful_sup.edges_kept_ratio", "ratio"},
    {"reduction.share_pct", "%"},
    {"core.decompose_ms", "ms"},
    {"core.seed_ms", "ms"},
    {"core.seed_size_ratio", "ratio"},
    {"core.branch_ms", "ms"},
    {"core.branch_share_pct", "%"},
    {"core.branch_nodes", "count"},
    {"core.branch_knodes_per_s", "knodes/s"},
    {"core.prunes_per_node", "ratio"},
    {"core.components", "count"},
    {"core.aggregate_ms", "ms"},
    {"bounds.root_ub_ms", "ms"},
    {"bounds.root_gap", "count"},
    {"service.queue_wait_ms", "ms"},
    {"service.run_ms", "ms"},
    {"service.finish_ms", "ms"},
    {"service.result_hit_ratio", "ratio"},
    {"service.prepared_hit_ratio", "ratio"},
    {"service.result_evictions", "count"},
    {"service.prepared_evictions", "count"},
    {"service.component_tasks_per_query", "ratio"},
    {"service.peak_queue_depth", "count"},
    {"service.pool_busy_ratio", "ratio"},
    {"service.incremental_ratio", "ratio"},
    {"service.replace_ms", "ms"},
    {"service.migration_invalidated", "count"},
    {"service.migration_republished", "count"},
    {"service.migration_hints", "count"},
    {"dynamic.apply_ms", "ms"},
    {"update_p50_ms", "ms"},
    {"update_tail_ms", "ms"},
    {"storage.persist_ms", "ms"},
    {"storage.wal_append_ms", "ms"},
    {"storage.wal_bytes_per_update", "bytes"},
    {"storage.records_per_fsync", "ratio"},
    {"obs.trace_overhead_pct", "%"},
    {"bench.generator_lag_ms", "ms"},
    {"error_rate", "ratio"},
    {"trace.coverage_pct", "%"},
};

double MetricOf(const RunResult& run, const std::string& name) {
  for (const perfbench::Metric& m : run.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload cold-reduce|cold-branch|"
               "serve-mixed --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fairclique::SetLogLevel(fairclique::LogLevel::kWarning);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--out-dir") args.out_dir = value;
    else return Usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0) return Usage();

  perfbench::LayerValues layers;
  RunResult run;
  if (args.workload == "cold-reduce") {
    run = perfbench::RunColdReduce(args, &layers);
  } else if (args.workload == "cold-branch") {
    run = perfbench::RunColdBranch(args, &layers);
  } else if (args.workload == "serve-mixed" && !args.trace) {
    run = perfbench::RunServeMixed(args, &layers);
  } else if (args.workload == "serve-mixed") {
    // Tracing overhead: the traced run's median latency against an untraced
    // run's on the same seed, each on a fresh service. (The cold workloads
    // compare each replayed query with its own executor latency instead.)
    Args untraced_args = args;
    untraced_args.trace = false;
    perfbench::LayerValues untraced_layers;
    const RunResult untraced =
        perfbench::RunServeMixed(untraced_args, &untraced_layers);
    run = perfbench::RunServeMixed(args, &layers);
    layers["obs.trace_overhead_pct"] =
        (MetricOf(run, "query_p50_ms") / MetricOf(untraced, "query_p50_ms") -
         1.0) * 100.0;
    run.correct = run.correct && untraced.correct;
    run.attempted += untraced.attempted;
    run.failed += untraced.failed;
  } else {
    return Usage();
  }

  for (const std::string& note : run.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::vector<perfbench::Metric> metrics;
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      auto it = layers.find(name);
      metrics.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
    }
  } else {
    metrics = run.metrics;
  }
  for (const perfbench::Metric& m : metrics) {
    std::printf("# %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return run.correct ? 0 : 1;
}
