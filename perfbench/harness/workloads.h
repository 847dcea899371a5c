// The three workloads and the service they drive.
#ifndef FAIRCLIQUE_PERFBENCH_WORKLOADS_H_
#define FAIRCLIQUE_PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "dynamic/dynamic_graph.h"
#include "inputs.h"
#include "service/graph_registry.h"
#include "service/prepared_graph_cache.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "storage/storage_manager.h"

namespace perfbench {

/// Load shape shared by every workload: one load-generator thread (the
/// caller) plus this many executor workers.
inline constexpr int kWorkers = 3;

/// The query service as the server wires it: registry -> executor with the
/// result (128 entries) and prepared-plan (16) caches at the server
/// defaults, optionally write-through to a StorageManager. Members are
/// declared so that the executor goes first and the storage last.
struct Service {
  std::unique_ptr<fairclique::storage::StorageManager> storage;
  fairclique::ResultCache cache{128};
  fairclique::PreparedGraphCache prepared{16};
  fairclique::GraphRegistry registry;
  std::vector<std::unique_ptr<fairclique::DynamicGraph>> dynamics;
  std::unique_ptr<fairclique::QueryExecutor> executor;

  Service() = default;
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
};

/// Builds a service over `graphs`. With a non-empty `data_dir` a
/// StorageManager (group-commit WAL, default flush policy) is opened there
/// and attached before registration, so registration persists each graph.
/// `add_seconds`, when non-null, receives each registration's duration.
/// Exits the process on failure (set-up errors are harness bugs).
std::unique_ptr<Service> BuildService(const std::vector<GraphSpec>& graphs,
                                      const std::string& data_dir,
                                      std::vector<double>* add_seconds = nullptr);

/// Per-layer metric values keyed by name; metrics a workload does not
/// exercise are reported as 0.
using LayerValues = std::map<std::string, double>;

RunResult RunColdReduce(const Args& args, LayerValues* layers);
RunResult RunColdBranch(const Args& args, LayerValues* layers);
RunResult RunServeMixed(const Args& args, LayerValues* layers);

}  // namespace perfbench

#endif  // FAIRCLIQUE_PERFBENCH_WORKLOADS_H_
