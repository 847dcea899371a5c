// Shared plumbing of the benchmark harness: command-line arguments, the
// metric list every workload fills in, percentile helpers and process
// memory.
#ifndef FAIRCLIQUE_PERFBENCH_COMMON_H_
#define FAIRCLIQUE_PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the traced run's per-layer JSON and the serve-mixed data
  /// dir; created when missing.
  std::string out_dir = ".bench_build/perfbench-out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the JSON fields of the result line plus free-form
/// notes printed above it (percentile choices, sample counts).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 for an empty set.
double Percentile(std::vector<double> samples, double q);

/// Conventional median: the middle sample, or the mean of the two middle
/// samples for an even count (steadier than a nearest rank when the samples
/// fall into clusters, as the cold workloads' per-key latencies do).
double Median(std::vector<double> samples);

/// The highest percentile of {75, 90, 95, 99, 99.9} that leaves at least ten
/// samples beyond it; the median (reported as p50) when none does, as in the
/// cold closed loops, which run few, long queries.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& samples);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Seconds on a monotonic clock since an arbitrary fixed origin.
double NowSeconds();

/// Mixes a workload seed with a stream constant into an independent seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Creates `dir` and its parents; false on failure.
bool MakeDirs(const std::string& dir);

/// Recursively removes `dir` (best effort).
void RemoveTree(const std::string& dir);

}  // namespace perfbench

#endif  // FAIRCLIQUE_PERFBENCH_COMMON_H_
