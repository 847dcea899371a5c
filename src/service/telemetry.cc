#include "service/telemetry.h"

#include <algorithm>
#include <utility>

#include "common/bitset_simd.h"
#include "common/build_info.h"
#include "core/prepared_graph.h"
#include "graph/fingerprint.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "service/wire.h"

namespace fairclique {

namespace {

/// The build-identity sub-object shared by `stats` and `health`.
void WriteBuildObject(wire::JsonWriter& w) {
  w.Key("build")
      .BeginObject()
      .Field("version", BuildVersion())
      .Field("build_type", BuildType())
      .Field("compiler", BuildCompiler())
      .Field("simd", simd::ActiveName())
      .EndObject();
}

enum Kind { kCounter, kGauge };

/// One service counter of stats struct S, declared once: `read` picks the
/// member, `key` names it in the struct's `stats` JSON object and `family`
/// is its Prometheus family. Both renderers loop over the same rows.
template <typename S>
struct CounterRow {
  uint64_t (*read)(const S&);
  const char* key;
  const char* family;
  Kind kind;
  const char* help;
};

/// `read` for member M (the structs mix uint64_t counters and size_t
/// gauges).
template <auto M>
uint64_t Member(const auto& s) {
  return s.*M;
}

using Reg = RegistryStats;
constexpr CounterRow<Reg> kRegistryRows[] = {
    {Member<&Reg::loads>, "loads", "fc_registry_loads_total", kCounter,
     "Graphs registered via Load/Add"},
    {Member<&Reg::restores>, "restores", "fc_registry_restores_total",
     kCounter, "Graphs registered from durable recovery"},
    {Member<&Reg::replaces>, "replaces", "fc_registry_replaces_total",
     kCounter, "Epoch transitions published by Replace"},
    {Member<&Reg::evictions>, "evictions", "fc_registry_evictions_total",
     kCounter, "Graphs evicted"},
    {Member<&Reg::graphs>, "graphs", "fc_registry_graphs", kGauge,
     "Currently registered graphs"},
};

using Rc = ResultCacheStats;
constexpr CounterRow<Rc> kCacheRows[] = {
    {Member<&Rc::hits>, "hits", "fc_result_cache_hits_total", kCounter,
     "Result-cache hits"},
    {Member<&Rc::misses>, "misses", "fc_result_cache_misses_total", kCounter,
     "Result-cache misses"},
    {Member<&Rc::insertions>, "insertions", "fc_result_cache_insertions_total",
     kCounter, "Result-cache insertions"},
    {Member<&Rc::evictions>, "evictions", "fc_result_cache_evictions_total",
     kCounter, "Result-cache LRU evictions"},
    {Member<&Rc::invalidated>, "invalidated",
     "fc_result_cache_invalidated_total", kCounter,
     "Result-cache entries/hints dropped by invalidation"},
    {Member<&Rc::republished>, "republished",
     "fc_result_cache_republished_total", kCounter,
     "Exact entries migrated to a new epoch's fingerprint"},
    {Member<&Rc::hints_published>, "hints_published",
     "fc_result_cache_hints_published_total", kCounter,
     "Warm hints created by snapshot migration"},
    {Member<&Rc::hint_hits>, "hint_hits", "fc_result_cache_hint_hits_total",
     kCounter, "Warm hints consumed by queries"},
    {Member<&Rc::entries>, "entries", "fc_result_cache_entries", kGauge,
     "Resident result-cache entries"},
    {Member<&Rc::hint_entries>, "hint_entries", "fc_result_cache_hint_entries",
     kGauge, "Resident warm hints"},
    {Member<&Rc::capacity>, "capacity", "fc_result_cache_capacity", kGauge,
     "Result-cache capacity"},
};

using Pc = PreparedGraphCacheStats;
constexpr CounterRow<Pc> kPreparedRows[] = {
    {Member<&Pc::hits>, "hits", "fc_prepared_cache_hits_total", kCounter,
     "Prepared-plan cache hits"},
    {Member<&Pc::misses>, "misses", "fc_prepared_cache_misses_total",
     kCounter, "Prepared-plan cache misses"},
    {Member<&Pc::insertions>, "insertions",
     "fc_prepared_cache_insertions_total", kCounter, "Prepared-plan insertions"},
    {Member<&Pc::evictions>, "evictions", "fc_prepared_cache_evictions_total",
     kCounter, "Prepared-plan LRU evictions"},
    {Member<&Pc::invalidated>, "invalidated",
     "fc_prepared_cache_invalidated_total", kCounter,
     "Prepared plans dropped by invalidation"},
    {Member<&Pc::forwarded>, "forwarded", "fc_prepared_cache_forwarded_total",
     kCounter, "Prepared plans re-keyed to a new epoch"},
    {Member<&Pc::entries>, "entries", "fc_prepared_cache_entries", kGauge,
     "Resident prepared plans"},
    {Member<&Pc::capacity>, "capacity", "fc_prepared_cache_capacity", kGauge,
     "Prepared-plan cache capacity"},
};

using Ex = ExecutorMetrics;
constexpr CounterRow<Ex> kExecutorRows[] = {
    {Member<&Ex::submitted>, "submitted", "fc_executor_submitted_total",
     kCounter, "Requests submitted"},
    {Member<&Ex::accepted>, "accepted", "fc_executor_accepted_total",
     kCounter, "Requests admitted"},
    {Member<&Ex::rejected>, "rejected", "fc_executor_rejected_total",
     kCounter, "Requests rejected (queue full or shutdown)"},
    {Member<&Ex::served>, "served", "fc_executor_served_total", kCounter,
     "Responses completed"},
    {Member<&Ex::cache_hits>, "cache_hits", "fc_executor_cache_hits_total",
     kCounter, "Queries answered from the result cache"},
    {Member<&Ex::incremental_requeries>, "incremental",
     "fc_executor_incremental_requeries_total", kCounter,
     "Queries answered exactly via incremental re-query"},
    {Member<&Ex::warm_starts>, "warm_starts", "fc_executor_warm_starts_total",
     kCounter, "Full searches seeded by a warm hint"},
    {Member<&Ex::prepared_hits>, "prepared_hits",
     "fc_executor_prepared_hits_total", kCounter,
     "Branch stages run on a cached prepared plan"},
    {Member<&Ex::prepared_builds>, "prepared_builds",
     "fc_executor_prepared_builds_total", kCounter, "Prepared plans built"},
    {Member<&Ex::certified>, "certified", "fc_executor_certified_total",
     kCounter, "Plan misses answered by HeurRFC's certified seed"},
    {Member<&Ex::component_tasks>, "component_tasks",
     "fc_executor_component_tasks_total", kCounter,
     "Component tasks scheduled pool-wide"},
    {Member<&Ex::deadline_misses>, "deadline_misses",
     "fc_executor_deadline_misses_total", kCounter,
     "Responses answered with deadline_missed"},
    {Member<&Ex::expired_in_queue>, "expired_in_queue",
     "fc_executor_expired_in_queue_total", kCounter,
     "Requests whose deadline expired before a worker popped them"},
    {Member<&Ex::stopped_node_limit>, "stopped_node_limit",
     "fc_executor_stopped_node_limit_total", kCounter,
     "Searches stopped by the request's node limit"},
    {Member<&Ex::stopped_time_limit>, "stopped_time_limit",
     "fc_executor_stopped_time_limit_total", kCounter,
     "Searches stopped by the request's own time limit"},
    {Member<&Ex::stopped_deadline>, "stopped_deadline",
     "fc_executor_stopped_deadline_total", kCounter,
     "Searches stopped by the per-query deadline (expired in queue "
     "included)"},
    {Member<&Ex::admission_queue_depth>, "admission_queue_depth",
     "fc_executor_admission_queue_depth", kGauge,
     "Whole queries waiting for a worker"},
    {Member<&Ex::component_queue_depth>, "component_queue_depth",
     "fc_executor_component_queue_depth", kGauge,
     "Expanded Branch tasks waiting"},
    {Member<&Ex::queue_depth>, "queue_depth", "fc_executor_queue_depth",
     kGauge, "Total backlog (admission + component)"},
    {Member<&Ex::peak_queue_depth>, "peak_queue_depth",
     "fc_executor_peak_queue_depth", kGauge,
     "High-water mark of the combined backlog"},
    {Member<&Ex::num_workers>, "num_workers", "fc_executor_workers", kGauge,
     "Configured worker-pool size"},
    {Member<&Ex::active_workers>, "active_workers",
     "fc_executor_active_workers", kGauge,
     "Workers currently executing a query stage or component task"},
};

using St = storage::StorageCounters;
constexpr CounterRow<St> kStorageRows[] = {
    {Member<&St::snapshots_written>, "snapshots_written",
     "fc_storage_snapshots_written_total", kCounter,
     "FCG2 snapshots written (incl. compactions)"},
    {Member<&St::wal_records_appended>, "wal_records_appended",
     "fc_wal_records_appended_total", kCounter,
     "WAL records acknowledged durable"},
    {Member<&St::wal_group_commits>, "wal_group_commits",
     "fc_wal_group_commits_total", kCounter,
     "Write+fsync groups issued by commit leaders"},
    {Member<&St::wal_records_replayed>, "wal_records_replayed",
     "fc_wal_records_replayed_total", kCounter,
     "WAL records replayed during recovery"},
    {Member<&St::compactions>, "compactions", "fc_storage_compactions_total",
     kCounter, "Snapshot rewrites that truncated a WAL"},
    {Member<&St::recoveries>, "recoveries", "fc_storage_recoveries_total",
     kCounter, "Graphs recovered by RecoverAll"},
    {Member<&St::recover_failures>, "recover_failures",
     "fc_storage_recover_failures_total", kCounter,
     "Manifest entries skipped on recovery"},
    {Member<&St::warm_entries_saved>, "warm_entries_saved",
     "fc_storage_warm_entries_saved_total", kCounter,
     "Warm cache entries persisted"},
    {Member<&St::warm_entries_restored>, "warm_entries_restored",
     "fc_storage_warm_entries_restored_total", kCounter,
     "Warm cache entries restored (verifier-approved)"},
    {Member<&St::warm_entries_rejected>, "warm_entries_rejected",
     "fc_storage_warm_entries_rejected_total", kCounter,
     "Warm cache entries rejected by the restore verifier"},
};

/// Renders `rows` of `s` as the `stats` sub-object `name`.
template <typename S, size_t N>
void WriteCounterObject(wire::JsonWriter& w, const char* name, const S& s,
                        const CounterRow<S> (&rows)[N]) {
  w.Key(name).BeginObject();
  for (const CounterRow<S>& row : rows) {
    w.Field(row.key, static_cast<unsigned long long>(row.read(s)));
  }
  w.EndObject();
}

/// Appends `rows` of `s` to a scrape as one family each.
template <typename S, size_t N>
void AddCounterFamilies(obs::MetricsSnapshot& snap, const S& s,
                        const CounterRow<S> (&rows)[N]) {
  for (const CounterRow<S>& row : rows) {
    if (row.kind == kCounter) {
      snap.AddCounter(row.family, row.help, row.read(s));
    } else {
      snap.AddGauge(row.family, row.help, static_cast<int64_t>(row.read(s)));
    }
  }
}

}  // namespace

ServiceTelemetry GatherTelemetry(const GraphRegistry& registry,
                                 const QueryExecutor& executor,
                                 const ResultCache* cache,
                                 const PreparedGraphCache* prepared,
                                 const storage::StorageManager* storage,
                                 const obs::Watchdog* watchdog) {
  ServiceTelemetry t;
  t.graphs = registry.List();
  t.registry = registry.Stats();
  t.executor = executor.metrics();
  if (cache != nullptr) t.cache = cache->Stats();
  if (prepared != nullptr) t.prepared = prepared->Stats();
  if (storage != nullptr) t.storage = storage->counters();
  if (watchdog != nullptr) t.watchdog = watchdog->stats();
  return t;
}

std::string StatsJson(uint64_t id, const ServiceTelemetry& t) {
  wire::JsonWriter w;
  w.BeginObject()
      .Field("ok", true)
      .Field("id", static_cast<unsigned long long>(id))
      .Field("uptime_seconds", ProcessUptimeSeconds());
  WriteBuildObject(w);
  w.Key("graphs").BeginArray();
  for (const auto& entry : t.graphs) {
    w.BeginObject()
        .Field("name", entry->name)
        .Field("vertices", entry->graph->num_vertices())
        .Field("edges", entry->graph->num_edges())
        .Field("version", static_cast<unsigned long long>(entry->version))
        .Field("fingerprint", FingerprintHex(entry->fingerprint))
        .EndObject();
  }
  w.EndArray();
  WriteCounterObject(w, "registry", t.registry, kRegistryRows);
  WriteCounterObject(w, "cache", t.cache, kCacheRows);
  WriteCounterObject(w, "prepared", t.prepared, kPreparedRows);
  WriteCounterObject(w, "executor", t.executor, kExecutorRows);
  w.Key("kernel")
      .BeginObject()
      .Field("simd", simd::ActiveName())
      .Field("bitset_budget_bytes",
             static_cast<unsigned long long>(BitsetArenaBudgetBytes()))
      .EndObject();
  {
    obs::Slowlog& slowlog = obs::Slowlog::Default();
    w.Key("slowlog")
        .BeginObject()
        .Field("traces", slowlog.size())
        .Field("capacity", slowlog.capacity())
        .EndObject();
  }
  if (t.storage) WriteCounterObject(w, "storage", *t.storage, kStorageRows);
  w.EndObject();
  return w.str();
}

std::string PrometheusText(const ServiceTelemetry& t) {
  // Interning the standard instruments first guarantees the required
  // histogram families render (with zero counts) even on a fresh process.
  obs::QueryQueueWaitHistogram();
  obs::QueryRunHistogram();
  obs::QueryPrepareHistogram();
  obs::QueryBranchHistogram();
  obs::WalFsyncHistogram();
  obs::WalGroupFramesHistogram();
  obs::WalBytesWrittenCounter();

  obs::MetricsSnapshot snap = obs::MetricRegistry::Default().Snapshot();
  AddCounterFamilies(snap, t.executor, kExecutorRows);
  AddCounterFamilies(snap, t.cache, kCacheRows);
  AddCounterFamilies(snap, t.prepared, kPreparedRows);
  AddCounterFamilies(snap, t.registry, kRegistryRows);
  if (t.storage) AddCounterFamilies(snap, *t.storage, kStorageRows);

  {
    obs::Slowlog& slowlog = obs::Slowlog::Default();
    snap.AddGauge("fc_slowlog_traces", "Traces retained in the slowlog",
                  static_cast<int64_t>(slowlog.size()));
    snap.AddGauge("fc_slowlog_capacity", "Slowlog capacity",
                  static_cast<int64_t>(slowlog.capacity()));
  }

  // Build identity as an info-style metric (constant 1, payload in the
  // labels) plus process uptime, so dashboards can overlay deploys on any
  // latency panel.
  snap.AddLabeledGauge(
      "fc_build_info", "Build identity (constant 1; see labels)",
      std::string("{version=\"") + BuildVersion() + "\",build_type=\"" +
          BuildType() + "\",simd=\"" + simd::ActiveName() + "\"}",
      1);
  snap.AddGauge("fc_uptime_seconds", "Seconds since process start",
                ProcessUptimeSeconds());
  snap.AddGauge(
      "fc_journal_events_recorded",
      "Structured events recorded into the in-memory journal since start",
      static_cast<int64_t>(obs::EventJournal::Default().recorded()));

  {
    obs::ProgressRegistry& progress = obs::ProgressRegistry::Default();
    snap.AddGauge("fc_queries_inflight",
                  "Queries currently in their Branch stage",
                  static_cast<int64_t>(progress.size()));
    snap.AddGauge("fc_search_incumbent_gap",
                  "Largest (upper bound - incumbent) over in-flight "
                  "searches; 0 when idle or converged",
                  progress.MaxIncumbentGap());
  }

  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const obs::MetricSnapshot& a, const obs::MetricSnapshot& b) {
              return a.name < b.name;
            });
  return obs::RenderPrometheus(snap);
}

std::string HealthJson(uint64_t id, const ServiceTelemetry& t) {
  // Degraded verdicts come from the watchdog: a stuck query, a stalled
  // admission queue, or a window where most answers blew their deadline.
  std::vector<std::string> reasons;
  if (t.watchdog) {
    if (t.watchdog->currently_stuck > 0) reasons.push_back("stalled_query");
    if (t.watchdog->queue_stalled_now) {
      reasons.push_back("admission_queue_stalled");
    }
    if (t.watchdog->deadline_miss_rate > 0.5) {
      reasons.push_back("high_deadline_miss_rate");
    }
  }

  wire::JsonWriter w;
  w.BeginObject()
      .Field("ok", true)
      .Field("id", static_cast<unsigned long long>(id))
      .Field("status", reasons.empty() ? "ok" : "degraded");
  w.Key("reasons").BeginArray();
  for (const std::string& r : reasons) w.Value(r);
  w.EndArray();
  w.Field("uptime_seconds", ProcessUptimeSeconds());
  WriteBuildObject(w);
  w.Field("graphs", t.graphs.size())
      .Field("inflight", obs::ProgressRegistry::Default().size())
      .Field("queue_depth", t.executor.queue_depth)
      .Field("served", static_cast<unsigned long long>(t.executor.served))
      .Field("deadline_misses",
             static_cast<unsigned long long>(t.executor.deadline_misses))
      .Field("journal_events",
             static_cast<unsigned long long>(
                 obs::EventJournal::Default().recorded()));
  if (t.watchdog) {
    const obs::WatchdogStats& wd = *t.watchdog;
    w.Key("watchdog")
        .BeginObject()
        .Field("running", wd.running)
        .Field("sweeps", static_cast<unsigned long long>(wd.sweeps))
        .Field("stalled_queries",
               static_cast<unsigned long long>(wd.stalled_queries))
        .Field("currently_stuck",
               static_cast<unsigned long long>(wd.currently_stuck))
        .Field("fsync_stalls", static_cast<unsigned long long>(wd.fsync_stalls))
        .Field("queue_stalls", static_cast<unsigned long long>(wd.queue_stalls))
        .Field("queue_stalled_now", wd.queue_stalled_now)
        .Field("last_fsync_mean_micros",
               static_cast<long long>(wd.last_fsync_mean_micros))
        .Field("deadline_miss_rate", wd.deadline_miss_rate)
        .EndObject();
  }
  w.EndObject();
  return w.str();
}

std::string TraceJson(const obs::Trace& trace) {
  wire::JsonWriter w;
  w.BeginObject()
      .Field("trace_id", static_cast<unsigned long long>(trace.id))
      .Field("graph", trace.graph)
      .Field("options", trace.options)
      .Field("queue_micros", static_cast<long long>(trace.queue_micros))
      .Field("run_micros", static_cast<long long>(trace.run_micros))
      .Field("total_micros", static_cast<long long>(trace.total_micros))
      .Field("ok", trace.ok)
      .Field("cache_hit", trace.cache_hit)
      .Field("prepared_hit", trace.prepared_hit)
      .Field("incremental", trace.incremental)
      .Field("warm_start", trace.warm_start)
      .Field("deadline_missed", trace.deadline_missed)
      .Field("stop_reason", trace.stop_reason);
  w.Key("spans").BeginArray();
  for (const obs::TraceSpan& span : trace.spans) {
    w.BeginObject()
        .Field("name", span.name)
        .Field("parent", span.parent)
        .Field("start_micros", static_cast<long long>(span.start_micros))
        .Field("duration_micros",
               static_cast<long long>(span.duration_micros))
        .EndObject();
  }
  w.EndArray();
  if (!trace.explain_json.empty()) w.Key("plan").Raw(trace.explain_json);
  w.EndObject();
  return w.str();
}

std::string ProgressJson(const obs::ProgressSnapshot& p) {
  wire::JsonWriter w;
  w.BeginObject()
      .Field("trace_id", static_cast<unsigned long long>(p.trace_id))
      .Field("graph", p.graph)
      .Field("options", p.options)
      .Field("nodes", static_cast<unsigned long long>(p.nodes))
      .Field("incumbent_size", static_cast<long long>(p.incumbent_size))
      .Field("upper_bound", static_cast<long long>(p.upper_bound))
      .Field("components_done",
             static_cast<unsigned long long>(p.components_done))
      .Field("components_total",
             static_cast<unsigned long long>(p.components_total))
      .Field("elapsed_micros", static_cast<long long>(p.elapsed_micros))
      .EndObject();
  return w.str();
}

}  // namespace fairclique
