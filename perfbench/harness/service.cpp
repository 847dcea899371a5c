#include <cstdio>
#include <cstdlib>

#include "workloads.h"

namespace perfbench {

Service::~Service() {
  executor.reset();  // drains in-flight queries while everything is alive
  registry.AttachStorage(nullptr);
}

std::unique_ptr<Service> BuildService(const std::vector<GraphSpec>& graphs,
                                      const std::string& data_dir,
                                      std::vector<double>* add_seconds) {
  auto service = std::make_unique<Service>();
  service->registry.AttachCache(&service->cache);
  service->registry.AttachPreparedCache(&service->prepared);
  if (!data_dir.empty()) {
    fairclique::Status status = fairclique::storage::StorageManager::Open(
        data_dir, fairclique::storage::StorageManager::Options{},
        &service->storage);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: cannot open %s: %s\n",
                   data_dir.c_str(), status.ToString().c_str());
      std::exit(2);
    }
    service->registry.AttachStorage(service->storage.get());
  }
  for (const GraphSpec& spec : graphs) {
    fairclique::AttributedGraph graph = Generate(spec);
    double t0 = NowSeconds();
    fairclique::Status status = service->registry.Add(
        spec.name, std::move(graph), "perfbench:" + spec.dataset);
    if (add_seconds != nullptr) add_seconds->push_back(NowSeconds() - t0);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: cannot register %s: %s\n",
                   spec.name.c_str(), status.ToString().c_str());
      std::exit(2);
    }
  }
  service->executor = std::make_unique<fairclique::QueryExecutor>(
      fairclique::ExecutorOptions{kWorkers, 256}, &service->cache,
      &service->prepared);
  return service;
}

}  // namespace perfbench
