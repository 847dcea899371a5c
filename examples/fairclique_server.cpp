// fairclique_server: a JSON-lines front end to the concurrent query service
// (src/service). One command object per input line, one JSON response per
// line on stdout, so batch workloads can be driven from a file or a pipe:
//
//   ./fairclique_server < workload.jsonl
//   ./fairclique_server --workers 4 --cache 256 workload.jsonl
//   ./fairclique_server --data-dir /var/lib/fairclique < workload.jsonl
//
// With --data-dir the service is durable: every load writes an FCG2
// snapshot through src/storage, every update batch is WAL-logged (fsync'd)
// before its epoch is published, and startup automatically recovers all
// registered graphs (snapshot + WAL replay, fingerprint-verified) plus the
// persisted result-cache entries (verifier-checked) — so a SIGKILL'd server
// restarts to the same verified answers at the same epochs. WAL appends are
// group-committed (concurrent batches share one fsync; see
// storage/group_commit.h); --wal-group-window N makes a commit leader
// linger N microseconds for more batches before syncing (larger groups,
// higher per-batch latency; default 0).
//
// Commands:
//   {"cmd":"load","name":"g","dataset":"dblp-s","scale":1.0}
//   {"cmd":"load","name":"g","path":"edges.txt","attrs":"attr.txt"}
//   {"cmd":"load","name":"g","path":"graph.fcg2"}
//   {"cmd":"load","name":"g","path":"graph.metis","format":"metis"}
//   {"cmd":"query","graph":"g","k":3,"delta":1}             synchronous
//   {"cmd":"query","graph":"g","k":3,"delta":1,"preset":"baseline",
//    "extra":"cp","deadline":5.0,"async":true}              queued
//   {"cmd":"drain"}      print pending async responses in submission order
//   {"cmd":"stats"}      registry + caches + executor counters
//   {"cmd":"evict","graph":"g"}      drop one graph (+ its cached artifacts)
//   {"cmd":"evict","cache":true}     clear the result + prepared caches
//   {"cmd":"update","graph":"g","add_edges":"0-5,3-7",
//    "remove_edges":"1-2","add_vertices":"a,b","set_attrs":"4:b"}
//                        apply one batch, advance the epoch, migrate caches
//   {"cmd":"snapshot","graph":"g"}             report the current epoch
//   {"cmd":"snapshot","graph":"g","path":"g.fcg2"}  also save it as FCG2
//   {"cmd":"persist"}    write the result-cache warm file to the data dir
//   {"cmd":"restore"}    recover data-dir graphs not currently registered
//   {"cmd":"metrics"}    alias of stats (includes storage counters)
//   {"cmd":"metrics","format":"prometheus"}
//                        Prometheus text exposition of every counter and
//                        latency histogram; multi-line, ends with "# EOF"
//   {"cmd":"slowlog","limit":10}   slowest retained traces, one JSON line
//                                  each (span tree included), then an ack
//   {"cmd":"slowlog","trace_id":42}  only that trace (structured error when
//                                    it is not retained)
//   {"cmd":"trace","trace_id":42}  one retained trace by id (the id every
//                                  query response echoes as trace_id)
//   {"cmd":"ps"}         live progress of in-flight searches, one JSON line
//                        per query (nodes, incumbent vs upper bound,
//                        components done/total), then an ack
//   {"cmd":"health"}     ok/degraded verdict with reasons (stalled query,
//                        stalled admission queue, high deadline-miss rate),
//                        uptime, build identity, watchdog stats
//   {"cmd":"journal","limit":64}  newest structured events from the
//                                 in-memory event journal, as one JSON line
//   {"cmd":"profile","action":"start","hz":200}  sampling profiler on
//   {"cmd":"profile","action":"stop"}
//   {"cmd":"profile","action":"dump"}  folded stacks ("frame;frame count"),
//                                      flamegraph.pl-ready, then an ack
//   {"cmd":"profile","action":"reset"}
//   {"cmd":"quit"}
//
// query fields: preset = baseline|bounded|full (default full), extra = none|
// degeneracy|hindex|cd|ch|cp (default cp), deadline in seconds (0 = none),
// threads = accepted for compatibility and ignored: every server query
// (sync or async) goes through the executor, which schedules component
// tasks onto the shared worker pool (--workers), "bypass_cache":true for
// cold result-cache runs, "bypass_prepared":true to also re-run the
// reduction pipeline, "explain":true to attach an EXPLAIN plan (reduction
// stages, component engines, prune breakdown, cache decisions) to the
// response under "plan".
//
// load fields: format = auto|edgelist|fcg2|metis (default auto, which
// sniffs the FCG2 magic and METIS's leading '%'); attrs names "v attr"
// lines by the edge list's own vertex ids. snapshot's optional path always
// writes FCG2, which a later load reads back through the sniff.
//
// update fields (all optional, applied as ONE atomic batch): add_vertices is
// a comma list of attributes ("a,b"); add_edges / remove_edges are comma
// lists of "u-v" pairs; set_attrs is a comma list of "v:attr". The response
// reports the new epoch (version, fingerprint), how the result cache was
// migrated (invalidated / republished / hints) and how the prepared-plan
// cache was (invalidated / forwarded).
//
// The wire-format building blocks (JSON parsing, escaping, token parsing,
// response serialization) live in src/service/wire.h with their own unit
// tests; this file is only the command loop.

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fairclique.h"
#include "datasets/datasets.h"
#include "obs/crash_handler.h"
#include "obs/event_journal.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "service/telemetry.h"
#include "service/wire.h"

namespace {

using namespace fairclique;

using wire::GetBool;
using wire::GetNumber;
using wire::GetString;
using wire::JsonObject;
using wire::JsonWriter;

// Largest "scale" a dataset load accepts (pokec-s x64 is ~2.8M edges).
constexpr int kMaxDatasetScale = 64;

void PrintError(uint64_t id, const std::string& message) {
  std::printf("%s\n", wire::ErrorJson(id, message).c_str());
}

void PrintLine(const JsonWriter& w) {
  std::printf("%s\n", w.str().c_str());
}

void PrintQueryResponse(uint64_t id, const std::string& graph,
                        const QueryResponse& r) {
  std::printf("%s\n", wire::QueryResponseJson(id, graph, r).c_str());
}

struct Server {
  GraphRegistry registry;
  ResultCache cache;
  PreparedGraphCache prepared;
  QueryExecutor executor;
  /// Durable backing (null without --data-dir). Owned here; the registry
  /// only borrows it for write-through.
  std::unique_ptr<storage::StorageManager> storage;
  /// Mutable shadow of updated graphs; created lazily on the first update
  /// of a name, dropped on evict. The registry always serves the latest
  /// materialized snapshot.
  std::map<std::string, std::unique_ptr<DynamicGraph>> dynamics;
  uint64_t next_id = 1;
  std::vector<std::tuple<uint64_t, std::string, std::future<QueryResponse>>>
      pending;
  /// Liveness watchdog; declared after `executor` so it stops (joining its
  /// sweep thread, which samples the executor) before the executor
  /// destructs. Created in main once the flags are parsed.
  std::unique_ptr<obs::Watchdog> watchdog;

  Server(int workers, size_t cache_capacity, size_t prepared_capacity,
         size_t queue_capacity)
      : cache(cache_capacity),
        prepared(prepared_capacity),
        executor(ExecutorOptions{workers, queue_capacity}, &cache, &prepared) {
    registry.AttachCache(&cache);
    registry.AttachPreparedCache(&prepared);
  }

  ~Server() {
    // The registry borrows `storage`; make sure no write-through can run
    // while members destruct (executor drains before registry in reverse
    // member order, so detach first).
    registry.AttachStorage(nullptr);
  }

  /// Opens the data dir and recovers its graphs + warm cache. Called before
  /// the command loop; failures are fatal (a durable server that cannot
  /// persist is worse than a crash — it would silently lose updates).
  Status EnableStorage(const std::string& data_dir,
                       size_t wal_compaction_threshold,
                       int64_t wal_group_window_micros) {
    storage::StorageManager::Options options;
    options.wal_compaction_threshold = wal_compaction_threshold;
    options.group_window_micros = wal_group_window_micros;
    FAIRCLIQUE_RETURN_NOT_OK(
        storage::StorageManager::Open(data_dir, options, &storage));
    size_t graphs = 0, warm = 0;
    FAIRCLIQUE_RETURN_NOT_OK(RecoverFromStorage(&graphs, &warm));
    // Attach write-through only after recovery: Restore must not
    // re-snapshot what is already on disk.
    registry.AttachStorage(storage.get());
    std::fprintf(stderr,
                 "fairclique_server: data dir %s (%zu graphs recovered, %zu "
                 "warm results)\n",
                 data_dir.c_str(), graphs, warm);
    return Status::OK();
  }

  /// Registers every storage graph not currently in the registry (already-
  /// registered names are skipped inside RecoverAll, so a `restore` on a
  /// running server does not re-read their snapshots or re-count them),
  /// then restores verifier-checked warm cache entries (see
  /// RestoreWarmEntries for the admission rule and its limits).
  Status RecoverFromStorage(size_t* graphs_out, size_t* warm_out) {
    std::set<std::string> registered;
    for (const auto& entry : registry.List()) registered.insert(entry->name);
    const bool initial = registered.empty();
    std::vector<storage::RecoveredGraph> recovered;
    FAIRCLIQUE_RETURN_NOT_OK(storage->RecoverAll(&recovered, &registered));
    size_t graphs = 0;
    for (storage::RecoveredGraph& r : recovered) {
      Status status =
          registry.Restore(r.name, r.graph, r.version, r.source);
      if (!status.ok()) return status;
      ++graphs;
    }
    // Warm entries only make sense for newly registered content; re-running
    // the verifier over an already-warm cache on a no-op `restore` would
    // just inflate the counters and churn the LRU order.
    size_t warm = (initial || graphs > 0) ? RestoreWarmCache() : 0;
    if (graphs_out != nullptr) *graphs_out = graphs;
    if (warm_out != nullptr) *warm_out = warm;
    return Status::OK();
  }

  size_t RestoreWarmCache() {
    std::vector<storage::WarmEntry> entries;
    Status status = storage->LoadWarmEntries(&entries);
    if (!status.ok()) {
      std::fprintf(stderr, "warm cache not restored: %s\n",
                   status.ToString().c_str());
      return 0;
    }
    WarmRestoreOutcome outcome =
        RestoreWarmEntries(registry, &cache, std::move(entries));
    storage->NoteWarmRestore(outcome.restored, outcome.rejected);
    return outcome.restored;
  }

  void HandleLoad(uint64_t id, const JsonObject& obj) {
    std::string name = GetString(obj, "name");
    if (name.empty()) return PrintError(id, "load: missing 'name'");
    Status status;
    if (obj.count("dataset") > 0) {
      // Validate before LoadDataset: unknown names and scales that are not
      // finite and positive are assertion failures in the library, not
      // recoverable statuses. Scales past kMaxDatasetScale would allocate
      // without bound on one request.
      std::string dataset = GetString(obj, "dataset");
      double scale = GetNumber(obj, "scale", 1.0);
      bool known = false;
      for (const DatasetSpec& spec : StandardDatasets()) {
        if (spec.name == dataset) known = true;
      }
      if (!known) return PrintError(id, "load: unknown dataset " + dataset);
      if (!std::isfinite(scale) || scale <= 0 || scale > kMaxDatasetScale) {
        return PrintError(id, "load: scale must be a finite number in (0, " +
                                  std::to_string(kMaxDatasetScale) + "]");
      }
      status = registry.Add(name, LoadDataset(dataset, scale),
                            "dataset:" + dataset);
    } else {
      std::string path = GetString(obj, "path");
      if (path.empty()) return PrintError(id, "load: need 'path' or 'dataset'");
      std::string fmt = GetString(obj, "format", "auto");
      GraphFormat format = GraphFormat::kAuto;
      if (fmt == "edgelist") format = GraphFormat::kEdgeList;
      else if (fmt == "fcg2") format = GraphFormat::kBinaryV2;
      else if (fmt == "metis") format = GraphFormat::kMetis;
      else if (fmt != "auto") return PrintError(id, "load: bad format " + fmt);
      status = registry.Load(name, path, GetString(obj, "attrs"), format);
    }
    if (!status.ok()) return PrintError(id, status.ToString());
    auto entry = registry.Get(name);
    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("name", name)
        .Field("vertices", entry->graph->num_vertices())
        .Field("edges", entry->graph->num_edges())
        .Field("fingerprint", FingerprintHex(entry->fingerprint))
        .EndObject();
    PrintLine(w);
  }

  void HandleQuery(uint64_t id, const JsonObject& obj) {
    std::string name = GetString(obj, "graph");
    auto entry = registry.Get(name);
    if (entry == nullptr) {
      return PrintError(id, "query: graph '" + name + "' not loaded");
    }
    // The search asserts (aborts) on out-of-range k and delta; reject them
    // at the protocol boundary so one bad query cannot take the server
    // down. The cap keeps every k/delta sum far from int overflow.
    constexpr int64_t kMaxParam = int64_t{1} << 24;
    int64_t k_arg = 0;
    int64_t delta_arg = 0;
    if (!wire::GetInt(obj, "k", 2, 1, kMaxParam, &k_arg)) {
      return PrintError(id, "query: k must be an integer in [1, " +
                                std::to_string(kMaxParam) + "]");
    }
    if (!wire::GetInt(obj, "delta", 2, 0, kMaxParam, &delta_arg)) {
      return PrintError(id, "query: delta must be an integer in [0, " +
                                std::to_string(kMaxParam) + "]");
    }
    const int k = static_cast<int>(k_arg);
    const int delta = static_cast<int>(delta_arg);
    ExtraBound extra;
    if (!wire::ParseExtraBound(GetString(obj, "extra", "cp"), &extra)) {
      return PrintError(id, "query: bad 'extra'");
    }
    std::string preset = GetString(obj, "preset", "full");
    SearchOptions options;
    if (preset == "baseline") options = BaselineOptions(k, delta);
    else if (preset == "bounded") options = BoundedOptions(k, delta, extra);
    else if (preset == "full") options = FullOptions(k, delta, extra);
    else return PrintError(id, "query: bad preset " + preset);

    QueryRequest request;
    request.graph = std::move(entry);
    request.options = options;
    request.deadline_seconds = GetNumber(obj, "deadline", 0.0);
    request.bypass_cache = GetBool(obj, "bypass_cache", false);
    request.bypass_prepared_cache = GetBool(obj, "bypass_prepared", false);
    request.explain = GetBool(obj, "explain", false);

    std::future<QueryResponse> future = executor.Submit(std::move(request));
    if (GetBool(obj, "async", false)) {
      pending.emplace_back(id, name, std::move(future));
      JsonWriter w;
      w.BeginObject()
          .Field("ok", true)
          .Field("id", static_cast<unsigned long long>(id))
          .Field("queued", true)
          .EndObject();
      PrintLine(w);
    } else {
      PrintQueryResponse(id, name, future.get());
    }
  }

  void HandleDrain() {
    for (auto& [id, graph, future] : pending) {
      PrintQueryResponse(id, graph, future.get());
    }
    pending.clear();
  }

  ServiceTelemetry Telemetry() const {
    return GatherTelemetry(registry, executor, &cache, &prepared,
                           storage.get(), watchdog.get());
  }

  void StartWatchdog(const obs::WatchdogOptions& options) {
    watchdog = std::make_unique<obs::Watchdog>(options);
    watchdog->SetExecutorSampler([this] {
      ExecutorMetrics m = executor.metrics();
      obs::WatchdogExecutorSample sample;
      sample.served = m.served;
      sample.deadline_misses = m.deadline_misses;
      sample.queue_depth = m.queue_depth;
      return sample;
    });
    watchdog->Start();
  }

  void HandleHealth(uint64_t id) {
    std::printf("%s\n", HealthJson(id, Telemetry()).c_str());
  }

  void HandleJournal(uint64_t id, const JsonObject& obj) {
    int64_t limit = 0;
    if (!wire::GetInt(obj, "limit", 64, 0, wire::kMaxExactJsonInt, &limit)) {
      return PrintError(id, "journal: limit must be an integer in [0, 2^53]");
    }
    obs::EventJournal& journal = obs::EventJournal::Default();
    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("recorded",
               static_cast<unsigned long long>(journal.recorded()));
    w.Key("events").Raw(journal.Json(static_cast<size_t>(limit)));
    w.EndObject();
    PrintLine(w);
  }

  /// Deliberate crash, for exercising the crash handler end to end (the CI
  /// crash-forensics smoke). Gated on FAIRCLIQUE_CRASH_TEST=1 so a stray
  /// command in a production workload cannot take the server down.
  /// wait_inflight polls until at least one query is mid-Branch (<= 10 s),
  /// so the postmortem provably captures an in-flight query.
  void HandleCrash(uint64_t id, const JsonObject& obj) {
    const char* enabled = std::getenv("FAIRCLIQUE_CRASH_TEST");
    if (enabled == nullptr || std::string(enabled) != "1") {
      return PrintError(id, "crash: set FAIRCLIQUE_CRASH_TEST=1 to enable");
    }
    if (GetBool(obj, "wait_inflight", false)) {
      for (int i = 0; i < 1000; ++i) {
        if (obs::ProgressRegistry::Default().size() > 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    std::fflush(stdout);
    std::raise(SIGSEGV);
  }

  void HandleStats(uint64_t id) {
    std::printf("%s\n", StatsJson(id, Telemetry()).c_str());
  }

  void HandleMetrics(uint64_t id, const JsonObject& obj) {
    if (GetString(obj, "format") != "prometheus") return HandleStats(id);
    // Raw multi-line exposition; the trailing "# EOF" line marks the end
    // for line-oriented consumers sharing the stream with JSON responses.
    std::fputs(PrometheusText(Telemetry()).c_str(), stdout);
  }

  void HandleSlowlog(uint64_t id, const JsonObject& obj) {
    if (obj.count("trace_id") > 0) {
      // Filtered form: behave like `trace` (including its structured miss),
      // so clients can use one command for both listing and lookup.
      return HandleTrace(id, obj);
    }
    int64_t limit = 0;
    if (!wire::GetInt(obj, "limit", 0, 0, wire::kMaxExactJsonInt, &limit)) {
      return PrintError(id, "slowlog: limit must be an integer in [0, 2^53]");
    }
    auto traces = obs::Slowlog::Default().Slowest(static_cast<size_t>(limit));
    for (const auto& trace : traces) {
      std::printf("%s\n", TraceJson(*trace).c_str());
    }
    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("traces", traces.size())
        .EndObject();
    PrintLine(w);
  }

  void HandleTrace(uint64_t id, const JsonObject& obj) {
    int64_t trace_arg = 0;
    if (!wire::GetInt(obj, "trace_id", 0, 0, wire::kMaxExactJsonInt,
                      &trace_arg)) {
      return PrintError(id, "trace: trace_id must be an integer in [0, 2^53]");
    }
    const uint64_t trace_id = static_cast<uint64_t>(trace_arg);
    auto trace = obs::Slowlog::Default().Find(trace_id);
    if (trace == nullptr) {
      // Structured miss: echoes the requested id and a machine-readable
      // reason, so retention misses are distinguishable from bad requests.
      std::printf("%s\n", wire::TraceNotFoundJson(id, trace_id).c_str());
      return;
    }
    std::printf("%s\n", TraceJson(*trace).c_str());
  }

  void HandlePs(uint64_t id) {
    auto inflight = obs::ProgressRegistry::Default().List();
    for (const auto& snapshot : inflight) {
      std::printf("%s\n", ProgressJson(snapshot).c_str());
    }
    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("inflight", inflight.size())
        .EndObject();
    PrintLine(w);
  }

  void HandleProfile(uint64_t id, const JsonObject& obj) {
    obs::Profiler& profiler = obs::Profiler::Default();
    std::string action = GetString(obj, "action", "dump");
    if (action == "start") {
      int64_t hz = 0;
      if (!wire::GetInt(obj, "hz", 99, 1, 1000000, &hz)) {
        return PrintError(id, "profile: hz must be an integer in [1, 1000000]");
      }
      if (!profiler.Start(static_cast<int>(hz))) {
        return PrintError(id, "profile: already running (or SIGPROF "
                              "unavailable on this platform)");
      }
    } else if (action == "stop") {
      if (!profiler.Stop()) return PrintError(id, "profile: not running");
    } else if (action == "reset") {
      if (!profiler.Reset()) {
        return PrintError(id, "profile: stop before reset");
      }
    } else if (action == "dump") {
      // Folded stacks first ("frame;frame count" — feed them straight to
      // flamegraph.pl), then the JSON ack that terminates the dump.
      std::fputs(profiler.DumpFolded().c_str(), stdout);
    } else {
      return PrintError(id, "profile: bad action '" + action + "'");
    }
    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("action", action)
        .Field("running", profiler.running())
        .Field("hz", profiler.hz())
        .Field("samples", static_cast<unsigned long long>(profiler.samples()))
        .Field("dropped", static_cast<unsigned long long>(profiler.dropped()))
        .Field("stacks", profiler.stacks())
        .EndObject();
    PrintLine(w);
  }

  void HandlePersist(uint64_t id) {
    if (storage == nullptr) {
      return PrintError(id, "persist: server started without --data-dir");
    }
    std::vector<storage::WarmEntry> entries = cache.ExportWarmEntries();
    Status status = storage->SaveWarmEntries(entries);
    if (!status.ok()) return PrintError(id, status.ToString());
    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("warm_entries", entries.size())
        .EndObject();
    PrintLine(w);
  }

  void HandleRestore(uint64_t id) {
    if (storage == nullptr) {
      return PrintError(id, "restore: server started without --data-dir");
    }
    size_t graphs = 0, warm = 0;
    Status status = RecoverFromStorage(&graphs, &warm);
    if (!status.ok()) return PrintError(id, status.ToString());
    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("graphs_restored", graphs)
        .Field("warm_restored", warm)
        .EndObject();
    PrintLine(w);
  }

  void HandleUpdate(uint64_t id, const JsonObject& obj) {
    std::string name = GetString(obj, "graph");
    auto entry = registry.Get(name);
    if (entry == nullptr) {
      return PrintError(id, "update: graph '" + name + "' not loaded");
    }

    std::vector<UpdateOp> batch;
    for (const std::string& token :
         wire::SplitList(GetString(obj, "add_vertices"))) {
      Attribute attr;
      if (!wire::ParseAttrToken(token, &attr)) {
        return PrintError(id, "update: bad attribute '" + token + "'");
      }
      batch.push_back(AddVertexOp(attr));
    }
    for (const std::string& token :
         wire::SplitList(GetString(obj, "add_edges"))) {
      VertexId u, v;
      if (!wire::ParseVertexPair(token, '-', &u, &v)) {
        return PrintError(id, "update: bad edge '" + token + "'");
      }
      batch.push_back(AddEdgeOp(u, v));
    }
    for (const std::string& token :
         wire::SplitList(GetString(obj, "remove_edges"))) {
      VertexId u, v;
      if (!wire::ParseVertexPair(token, '-', &u, &v)) {
        return PrintError(id, "update: bad edge '" + token + "'");
      }
      batch.push_back(RemoveEdgeOp(u, v));
    }
    for (const std::string& token :
         wire::SplitList(GetString(obj, "set_attrs"))) {
      size_t colon = token.find(':');
      Attribute attr;
      VertexId v;
      if (colon == std::string::npos || colon == 0 ||
          !wire::ParseAttrToken(token.substr(colon + 1), &attr) ||
          !wire::ParseVertexId(token.c_str(), token.c_str() + colon, &v)) {
        return PrintError(id, "update: bad set_attrs token '" + token + "'");
      }
      batch.push_back(SetAttributeOp(v, attr));
    }
    if (batch.empty()) {
      return PrintError(id, "update: empty batch (nothing to apply)");
    }

    auto [it, created] = dynamics.try_emplace(name);
    if (created) {
      // Seed at the entry's registered version so epochs continue across a
      // restart (a recovered graph re-enters at its persisted epoch, not 0).
      it->second =
          std::make_unique<DynamicGraph>(*entry->graph, entry->version);
    }
    DynamicGraph& dyn = *it->second;

    UpdateSummary summary;
    Status status = dyn.Apply(batch, &summary);
    if (!status.ok()) return PrintError(id, status.ToString());
    if (storage != nullptr) {
      // Write-ahead: the batch is fsync'd into the WAL before Replace
      // publishes the epoch. A failed append is survivable — the registry's
      // write-through then persists a fresh snapshot instead — so it is
      // reported on stderr, not to the client.
      status = storage->AppendUpdate(name, summary, batch);
      if (!status.ok()) {
        std::fprintf(stderr, "WAL append for '%s' failed (%s); snapshot "
                             "write-through will cover the epoch\n",
                     name.c_str(), status.ToString().c_str());
      }
    }
    ReplaceReport report;
    status = registry.Replace(name, dyn.snapshot(), summary.version, &summary,
                              &report);
    if (!status.ok()) return PrintError(id, status.ToString());

    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("graph", name)
        .Field("version", static_cast<unsigned long long>(summary.version))
        .Field("fingerprint", FingerprintHex(summary.fingerprint))
        .Field("vertices", dyn.num_vertices())
        .Field("edges", dyn.num_edges())
        .Field("vertices_added", summary.vertices_added)
        .Field("edges_added", summary.edges_added)
        .Field("edges_removed", summary.edges_removed)
        .Field("attrs_changed", summary.attributes_changed)
        .Field("insert_only", summary.insert_only());
    w.Key("cache")
        .BeginObject()
        .Field("invalidated", report.cache.invalidated)
        .Field("republished", report.cache.republished)
        .Field("hints", report.cache.hints)
        .EndObject();
    w.Key("prepared")
        .BeginObject()
        .Field("invalidated", report.prepared.invalidated)
        .Field("forwarded", report.prepared.forwarded)
        .EndObject();
    w.EndObject();
    PrintLine(w);
  }

  void HandleSnapshot(uint64_t id, const JsonObject& obj) {
    std::string name = GetString(obj, "graph");
    auto entry = registry.Get(name);
    if (entry == nullptr) {
      return PrintError(id, "snapshot: graph '" + name + "' not loaded");
    }
    std::string path = GetString(obj, "path");
    if (!path.empty()) {
      std::string fmt = GetString(obj, "format", "fcg2");
      if (fmt != "fcg2") return PrintError(id, "snapshot: bad format " + fmt);
      // An unwritable path is the client's error to hear about: the saver
      // writes atomically (tmp + rename), so a failure here means nothing
      // was saved — report it instead of answering ok with no file.
      Status status = storage::SaveFcg2(*entry->graph, path);
      if (!status.ok()) return PrintError(id, status.ToString());
    }
    JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("graph", name)
        .Field("version", static_cast<unsigned long long>(entry->version))
        .Field("fingerprint", FingerprintHex(entry->fingerprint))
        .Field("vertices", entry->graph->num_vertices())
        .Field("edges", entry->graph->num_edges())
        .Field("source", entry->source);
    if (!path.empty()) w.Field("saved", path);
    w.EndObject();
    PrintLine(w);
  }

  void HandleEvict(uint64_t id, const JsonObject& obj) {
    if (GetBool(obj, "cache", false)) {
      cache.Clear();
      prepared.Clear();
      JsonWriter w;
      w.BeginObject()
          .Field("ok", true)
          .Field("id", static_cast<unsigned long long>(id))
          .Field("cleared", "cache")
          .EndObject();
      PrintLine(w);
      return;
    }
    std::string name = GetString(obj, "graph");
    if (name.empty()) return PrintError(id, "evict: need 'graph' or 'cache'");
    bool evicted = registry.Evict(name);
    dynamics.erase(name);
    JsonWriter w;
    w.BeginObject()
        .Field("ok", evicted)
        .Field("id", static_cast<unsigned long long>(id))
        .Field("evicted", name)
        .EndObject();
    PrintLine(w);
  }

  /// Returns false when the session should end.
  bool HandleLine(const std::string& line) {
    std::string trimmed = line;
    size_t start = trimmed.find_first_not_of(" \t\r");
    if (start == std::string::npos || trimmed[start] == '#') return true;
    uint64_t id = next_id++;
    JsonObject obj;
    std::string error;
    if (!wire::ParseJsonObject(line, &obj, &error)) {
      PrintError(id, "parse error: " + error);
      return true;
    }
    std::string cmd = GetString(obj, "cmd");
    // A client id that is not an integer in [0, 2^53] keeps the
    // auto-assigned id.
    int64_t requested = 0;
    if (obj.count("id") > 0 &&
        wire::GetInt(obj, "id", 0, 0, wire::kMaxExactJsonInt, &requested)) {
      id = static_cast<uint64_t>(requested);
    }
    if (cmd == "load") HandleLoad(id, obj);
    else if (cmd == "query") HandleQuery(id, obj);
    else if (cmd == "update") HandleUpdate(id, obj);
    else if (cmd == "snapshot") HandleSnapshot(id, obj);
    else if (cmd == "persist") HandlePersist(id);
    else if (cmd == "restore") HandleRestore(id);
    else if (cmd == "drain") HandleDrain();
    else if (cmd == "stats") HandleStats(id);
    else if (cmd == "metrics") HandleMetrics(id, obj);
    else if (cmd == "slowlog") HandleSlowlog(id, obj);
    else if (cmd == "trace") HandleTrace(id, obj);
    else if (cmd == "ps") HandlePs(id);
    else if (cmd == "health") HandleHealth(id);
    else if (cmd == "journal") HandleJournal(id, obj);
    else if (cmd == "crash") HandleCrash(id, obj);
    else if (cmd == "profile") HandleProfile(id, obj);
    else if (cmd == "evict") HandleEvict(id, obj);
    else if (cmd == "quit") return false;
    else PrintError(id, "unknown cmd '" + cmd + "'");
    std::fflush(stdout);
    return true;
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: fairclique_server [--workers N] [--cache N] "
               "[--prepared N] [--queue N]\n"
               "                         [--data-dir PATH] [--wal-compact N] "
               "[--wal-group-window USEC]\n"
               "                         [--slowlog N] [--journal N] "
               "[--log-level LEVEL]\n"
               "                         [--watchdog-interval-ms N] "
               "[--watchdog-stall-ms N]\n"
               "                         [--no-watchdog] [commands.jsonl]\n"
               "reads JSON-lines commands from the file or stdin; with "
               "--data-dir the service\n"
               "is durable (FCG2 snapshots + group-committed update WAL), "
               "recovers its state\n"
               "on startup, and installs a crash handler that writes a "
               "postmortem (crash-<pid>.json)\n"
               "into the data dir on a fatal signal; --journal sizes the "
               "per-thread event rings;\n"
               "--log-level is debug|info|warning|error (default warning)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  int workers = 2;
  size_t cache_capacity = 128;
  size_t prepared_capacity = 16;
  size_t queue_capacity = 256;
  size_t wal_compact = 64;
  int64_t wal_group_window = 0;
  obs::WatchdogOptions watchdog_options;
  bool watchdog_enabled = true;
  std::string data_dir;
  std::string script;
  // A numeric flag's value: digits only and at most `max`, else usage.
  constexpr uint64_t kMaxSize = std::numeric_limits<size_t>::max();
  constexpr uint64_t kMaxMs = std::numeric_limits<int64_t>::max() / 1000;
  uint64_t n = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto number = [&](uint64_t max) {
      if (ParseU64(argv[++i], &n, max)) return true;
      std::fprintf(stderr, "bad %s '%s' (want an integer in [0, %llu])\n",
                   arg.c_str(), argv[i], static_cast<unsigned long long>(max));
      return false;
    };
    if (arg == "--workers" && i + 1 < argc) {
      if (!number(std::numeric_limits<int>::max())) return Usage();
      workers = static_cast<int>(n);
    } else if (arg == "--cache" && i + 1 < argc) {
      if (!number(kMaxSize)) return Usage();
      cache_capacity = n;
    } else if (arg == "--prepared" && i + 1 < argc) {
      if (!number(kMaxSize)) return Usage();
      prepared_capacity = n;
    } else if (arg == "--queue" && i + 1 < argc) {
      if (!number(kMaxSize)) return Usage();
      queue_capacity = n;
    } else if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg == "--wal-compact" && i + 1 < argc) {
      if (!number(kMaxSize)) return Usage();
      wal_compact = n;
    } else if (arg == "--wal-group-window" && i + 1 < argc) {
      if (!number(std::numeric_limits<int64_t>::max())) return Usage();
      wal_group_window = static_cast<int64_t>(n);
    } else if (arg == "--slowlog" && i + 1 < argc) {
      // Re-caps the process-wide slowlog before any query runs.
      if (!number(kMaxSize)) return Usage();
      obs::Slowlog::Default().Reset(n);
    } else if (arg == "--journal" && i + 1 < argc) {
      // Re-sizes the per-thread event rings before anything records.
      if (!number(kMaxSize)) return Usage();
      obs::EventJournal::Default().ResizeForStartup(n);
    } else if (arg == "--log-level" && i + 1 < argc) {
      LogLevel level;
      if (!ParseLogLevel(argv[++i], &level)) {
        std::fprintf(stderr, "bad --log-level '%s' (want debug|info|"
                             "warning|error)\n", argv[i]);
        return Usage();
      }
      SetLogLevel(level);
    } else if (arg == "--watchdog-interval-ms" && i + 1 < argc) {
      if (!number(kMaxMs)) return Usage();
      watchdog_options.interval_micros = static_cast<int64_t>(n) * 1000;
    } else if (arg == "--watchdog-stall-ms" && i + 1 < argc) {
      if (!number(kMaxMs)) return Usage();
      watchdog_options.stall_after_micros = static_cast<int64_t>(n) * 1000;
    } else if (arg == "--no-watchdog") {
      watchdog_enabled = false;
    } else if (arg == "--help" || arg == "-h" || arg[0] == '-') {
      return Usage();
    } else {
      script = arg;
    }
  }

  Server server(workers, cache_capacity, prepared_capacity, queue_capacity);
  if (!data_dir.empty()) {
    Status status =
        server.EnableStorage(data_dir, wal_compact, wal_group_window);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot enable storage: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    // Crash forensics need somewhere durable to write; the data dir is the
    // natural home (postmortems sit next to the state they describe).
    obs::CrashHandlerOptions crash_options;
    crash_options.dir = data_dir;
    if (!obs::InstallCrashHandler(crash_options)) {
      std::fprintf(stderr, "crash handler not installed (cannot open %s)\n",
                   data_dir.c_str());
    }
  }
  if (watchdog_enabled) server.StartWatchdog(watchdog_options);
  std::ifstream file;
  if (!script.empty()) {
    file.open(script);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script.c_str());
      return 1;
    }
  }
  std::istream& in = script.empty() ? std::cin : file;
  std::string line;
  while (std::getline(in, line)) {
    if (!server.HandleLine(line)) break;
  }
  server.HandleDrain();  // flush async queries left at EOF
  return 0;
}
