#ifndef FAIRCLIQUE_SERVICE_TELEMETRY_H_
#define FAIRCLIQUE_SERVICE_TELEMETRY_H_

/// Service-level telemetry export: one struct gathering every subsystem's
/// counters (executor, result cache, prepared-plan cache, registry, storage)
/// plus the process-wide instrument registry (obs/metrics.h), rendered as
/// either the server's `stats` JSON line or a Prometheus text-exposition
/// page. Each subsystem's counters are declared once, in one table per
/// stats struct in telemetry.cc: a row names the member, its `stats` key,
/// its Prometheus family, kind and HELP text, and both renderers loop over
/// the same rows, so a new counter is one row that shows up in both. The
/// caller gathers a ServiceTelemetry at scrape time from the components it
/// owns (GatherTelemetry) — there is no callback registration, so no
/// dangling exporter can outlive its component — and the already-maintained
/// counters cost the hot path nothing extra.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/progress.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "service/graph_registry.h"
#include "service/prepared_graph_cache.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "storage/storage_manager.h"

namespace fairclique {

/// Point-in-time counters of every service component. Assembled by the
/// owner (the server, a benchmark, a test) right before rendering.
struct ServiceTelemetry {
  std::vector<std::shared_ptr<const RegisteredGraph>> graphs;
  RegistryStats registry;
  ResultCacheStats cache;
  PreparedGraphCacheStats prepared;
  ExecutorMetrics executor;
  std::optional<storage::StorageCounters> storage;  // durable servers only
  std::optional<obs::WatchdogStats> watchdog;       // when a watchdog runs
};

/// Snapshots the components a service owns. `registry` and `executor` are
/// required; a null cache, prepared-plan cache, storage manager or watchdog
/// leaves its part of the snapshot default (storage and watchdog: absent,
/// so `stats`, Prometheus and `health` omit their sections).
ServiceTelemetry GatherTelemetry(
    const GraphRegistry& registry, const QueryExecutor& executor,
    const ResultCache* cache = nullptr,
    const PreparedGraphCache* prepared = nullptr,
    const storage::StorageManager* storage = nullptr,
    const obs::Watchdog* watchdog = nullptr);

/// The server's `stats` response line: registry contents + per-subsystem
/// counter objects, serialized through wire::JsonWriter.
std::string StatsJson(uint64_t id, const ServiceTelemetry& t);

/// Prometheus text exposition (format 0.0.4) of the ServiceTelemetry
/// counters merged with the process-wide instrument registry (latency
/// histograms, WAL metrics), name-sorted, ending in "# EOF". The standard
/// histograms (queue wait, run, prepare, branch, fsync) are interned before
/// rendering, so they appear on the page even before their first sample.
std::string PrometheusText(const ServiceTelemetry& t);

/// The server's `health` response line: an ok/degraded verdict with the
/// reasons behind a degraded call ("stalled_query",
/// "admission_queue_stalled", "high_deadline_miss_rate"), plus uptime,
/// build identity (version / build type / compiler / SIMD kernel), the
/// in-flight query count, and — when the caller wired a watchdog — its
/// stats sub-object. Designed for load-balancer checks: `"status"` is the
/// one field a prober needs, everything else is for the human who gets
/// paged when it says "degraded".
std::string HealthJson(uint64_t id, const ServiceTelemetry& t);

/// One trace as a JSON object (the `trace <id>` / `slowlog` responses):
/// ids, serving flags, timings, and the span tree as a flat array with
/// parent indices (-1 = top level). When the traced query carried an
/// EXPLAIN plan, it is spliced in under `plan`.
std::string TraceJson(const obs::Trace& trace);

/// One in-flight query's live progress as a JSON object (a `ps` response
/// row): trace id, graph, options key, node count, incumbent vs upper
/// bound, components done/total, and elapsed time.
std::string ProgressJson(const obs::ProgressSnapshot& p);

}  // namespace fairclique

#endif  // FAIRCLIQUE_SERVICE_TELEMETRY_H_
