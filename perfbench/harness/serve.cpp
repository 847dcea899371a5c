// serve-mixed: open loop at a fixed Poisson rate over the six stand-ins at
// x1, with a StorageManager attached. Queries draw Zipf-skewed over 360 keys
// (result cache 128 entries, plan cache 16 slots), so result hits, prepared
// hits and cold builds all occur; about 5% of operations are update batches
// applied the way the server applies them: DynamicGraph::Apply ->
// StorageManager::AppendUpdate -> GraphRegistry::Replace, inline on the load
// generator thread. Latency runs on the generator's clock from each
// operation's scheduled send time to the moment the generator sees the
// response, so a late generator shows in the latency it causes, and so does
// everything the executor does after its own run timer stops (telemetry,
// journal, the promise hand-off). Between sends the generator polls the
// outstanding responses: it spins while a response younger than 1 ms is
// outstanding (a cache hit answers in well under 1 ms) and the last 200 us
// before a send, and otherwise sleeps in 200 us steps, so a slower response
// is seen at most a few hundred microseconds late and the generator leaves
// the cores to the workers.
//
// Before the timed loop a closed-loop warm-up (part of set-up) fills the
// caches, and an untimed open-loop settle phase with the timed loop's rate
// and update share lets caches and pool reach their steady state, so the
// timed loop does not start with a backlog of cold misses.
//
// The traced run records a span tree per operation from the generator's own
// clock reads and the response's queue/run times:
//   bench.query  -> bench.lag, service.queue, service.run, service.finish
//   bench.update -> bench.lag, dynamic.apply, bench.wal_scan,
//                   storage.wal_append, service.replace
// Its tracing overhead against an untraced run is computed in main.cpp.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <numeric>
#include <system_error>
#include <thread>

#include "check.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace fc = fairclique;

namespace {

constexpr int kSetupRepeats = 3;
constexpr uint64_t kWarmupSeed = 0x3A4B;
constexpr uint64_t kSettleSeed = 0x5E77;
constexpr size_t kWarmupQueries = 200;
constexpr double kSettleSeconds = 3.0;
constexpr double kQueryTimeLimitSeconds = 60.0;
constexpr double kSpinSeconds = 200e-6;
constexpr double kYoungSeconds = 1e-3;
constexpr double kNapSeconds = 200e-6;
constexpr double kLatencyLimitMs = 250.0;

double Ms(double seconds) { return seconds * 1e3; }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".wal") bytes += entry.file_size(ec);
  }
  return bytes;
}

// An answer, identified by the epoch it was answered on. The epoch's graph
// is not kept during the loop (that would inflate peak memory with every
// snapshot); the checker rebuilds it from the logged batches afterwards.
struct Served {
  size_t graph = 0;
  uint64_t version = 0;
  uint64_t fingerprint = 0;
  Key key;
  std::vector<fc::VertexId> vertices;
};

struct AppliedBatch {
  size_t graph = 0;
  std::vector<fc::UpdateOp> ops;
};

// Everything one pass of the open loop measured.
struct Loop {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms, queue_ms, run_ms, finish_ms;
  std::vector<double> lag_ms, busy;
  std::vector<double> update_ms, apply_ms, append_ms, replace_ms, wal_bytes;
  uint64_t migration[3] = {0, 0, 0};  // invalidated, republished, hints
  size_t hits = 0, prepared_hits = 0, branched = 0, incremental = 0;
  double wall = 0.0;
};

struct PendingQuery {
  std::future<fc::QueryResponse> future;
  size_t graph = 0;
  uint64_t version = 0;
  uint64_t fingerprint = 0;
  Key key;
  double scheduled = 0.0;
  double submitted = 0.0;
  double seen = 0.0;  // when the generator saw the response
};

fc::QueryRequest ServeRequest(const Service& service,
                              const std::vector<GraphSpec>& graphs,
                              const Key& key) {
  fc::QueryRequest request;
  request.graph = service.registry.Get(graphs[key.graph].name);
  request.options = OptionsFor(key, graphs[key.graph].dataset);
  request.options.time_limit_seconds = kQueryTimeLimitSeconds;
  return request;
}

Loop OpenLoop(Service& service, const std::vector<GraphSpec>& graphs,
              const std::vector<ServeOp>& ops, double duration, Tracer* tracer,
              std::vector<Served>* served,
              std::vector<AppliedBatch>* applied) {
  Loop loop;
  std::vector<PendingQuery> pending;
  pending.reserve(ops.size());
  std::vector<size_t> outstanding;  // indices into `pending` not yet seen
  auto poll = [&pending, &outstanding] {
    for (size_t j = 0; j < outstanding.size();) {
      PendingQuery& query = pending[outstanding[j]];
      if (query.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++j;
        continue;
      }
      query.seen = NowSeconds();
      outstanding[j] = outstanding.back();
      outstanding.pop_back();
    }
  };
  // Polls until `until`; see the file comment for when it spins.
  auto wait_until = [&pending, &outstanding, &poll](double until) {
    while (true) {
      poll();
      const double now = NowSeconds();
      if (now >= until) return;
      double wake = until - kSpinSeconds;
      if (!outstanding.empty()) wake = std::min(wake, now + kNapSeconds);
      bool young = false;
      for (size_t j : outstanding) {
        young = young || now - pending[j].submitted < kYoungSeconds;
      }
      if (young || now >= wake) continue;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(wake))));
    }
  };
  const bool traced = tracer != nullptr;
  const double start = NowSeconds();
  for (size_t i = 0; i < ops.size(); ++i) {
    const ServeOp& op = ops[i];
    const double scheduled = start + op.at;
    wait_until(scheduled);
    const double sent = NowSeconds();
    loop.lag_ms.push_back(Ms(sent - scheduled));
    loop.busy.push_back(
        static_cast<double>(service.executor->metrics().active_workers) /
        kWorkers);
    ++loop.attempted;
    if (!op.update) {
      fc::QueryRequest request = ServeRequest(service, graphs, op.key);
      PendingQuery query;
      query.graph = op.key.graph;
      query.version = request.graph->version;
      query.fingerprint = request.graph->fingerprint;
      query.key = op.key;
      query.scheduled = scheduled;
      query.submitted = NowSeconds();
      query.future = service.executor->Submit(std::move(request));
      outstanding.push_back(pending.size());
      pending.push_back(std::move(query));
      continue;
    }
    const std::string& name = graphs[op.graph].name;
    fc::DynamicGraph& dyn = *service.dynamics[op.graph];
    std::vector<fc::UpdateOp> batch = MakeBatch(*dyn.snapshot(), op.batch_seed);
    fc::UpdateSummary summary;
    fc::ReplaceReport report;
    // WAL growth is read from the data dir around the append (traced run
    // only; the directory scans stay outside the timed calls).
    const double t0 = NowSeconds();
    fc::Status status = dyn.Apply(batch, &summary);
    const double t1 = NowSeconds();
    const uint64_t wal_before = traced ? WalBytes(service.storage->dir()) : 0;
    const double t1s = NowSeconds();
    if (status.ok()) {
      status = service.storage->AppendUpdate(name, summary, batch);
    }
    const double t2 = NowSeconds();
    if (traced) {
      loop.wal_bytes.push_back(
          static_cast<double>(WalBytes(service.storage->dir()) - wal_before));
    }
    const double t2s = NowSeconds();
    if (status.ok()) {
      status = service.registry.Replace(name, dyn.snapshot(), summary.version,
                                        &summary, &report);
    }
    const double t3 = NowSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: update on %s failed: %s\n",
                   name.c_str(), status.ToString().c_str());
      ++loop.failed;
      continue;
    }
    applied->push_back({op.graph, std::move(batch)});
    loop.update_ms.push_back(Ms((t1 - t0) + (t2 - t1s) + (t3 - t2s)));
    loop.apply_ms.push_back(Ms(t1 - t0));
    loop.append_ms.push_back(Ms(t2 - t1s));
    loop.replace_ms.push_back(Ms(t3 - t2s));
    loop.migration[0] += report.cache.invalidated;
    loop.migration[1] += report.cache.republished;
    loop.migration[2] += report.cache.hints;
    if (traced) {
      const uint32_t rid = static_cast<uint32_t>(i + 1);
      int32_t root = tracer->Add("bench.update", rid, scheduled, t3, -1);
      tracer->Add("bench.lag", rid, scheduled, t0, root);
      tracer->Add("dynamic.apply", rid, t0, t1, root);
      tracer->Add("bench.wal_scan", rid, t1, t1s, root);
      tracer->Add("storage.wal_append", rid, t1s, t2, root);
      tracer->Add("bench.wal_scan", rid, t2, t2s, root);
      tracer->Add("service.replace", rid, t2s, t3, root);
    }
  }
  while (!outstanding.empty()) wait_until(NowSeconds() + kNapSeconds);

  // Every response has been seen; read them in send order.
  double last_done = start + duration;
  for (size_t i = 0; i < pending.size(); ++i) {
    PendingQuery& query = pending[i];
    fc::QueryResponse response = query.future.get();
    if (!response.status.ok() || response.result == nullptr ||
        !response.result->stats.completed || response.deadline_missed) {
      ++loop.failed;
      continue;
    }
    // The executor's own timers split the latency for the per-layer
    // metrics; what follows its run timer until the generator saw the
    // response is the finish share.
    const double queue = static_cast<double>(response.queue_micros) * 1e-6;
    const double work = static_cast<double>(response.run_micros) * 1e-6;
    const double ran = std::min(query.submitted + queue + work, query.seen);
    last_done = std::max(last_done, query.seen);
    loop.latency_ms.push_back(Ms(query.seen - query.scheduled));
    loop.queue_ms.push_back(Ms(queue));
    loop.run_ms.push_back(Ms(work));
    loop.finish_ms.push_back(Ms(query.seen - ran));
    if (response.cache_hit) {
      ++loop.hits;
    } else if (response.incremental) {
      ++loop.incremental;
    } else {
      ++loop.branched;
      if (response.prepared_hit) ++loop.prepared_hits;
    }
    served->push_back({query.graph, query.version, query.fingerprint,
                       query.key, response.result->clique.vertices});
    if (traced) {
      const uint32_t rid = static_cast<uint32_t>(i + 1) | 0x80000000u;
      const double queued = std::min(query.submitted + queue, ran);
      int32_t root =
          tracer->Add("bench.query", rid, query.scheduled, query.seen, -1);
      tracer->Add("bench.lag", rid, query.scheduled, query.submitted, root);
      tracer->Add("service.queue", rid, query.submitted, queued, root);
      tracer->Add("service.run", rid, queued, ran, root);
      tracer->Add("service.finish", rid, ran, query.seen, root);
    }
  }
  loop.wall = last_done - start;
  return loop;
}

// Rebuilds every epoch from the base graphs and the logged batches, then
// checks each served answer against its epoch. Returns the wrong count.
size_t CheckServed(const std::vector<GraphSpec>& graphs,
                   const std::vector<std::shared_ptr<const fc::AttributedGraph>>& bases,
                   const std::vector<AppliedBatch>& applied,
                   const std::vector<Served>& served, std::string* error) {
  std::vector<std::map<uint64_t, std::shared_ptr<const fc::AttributedGraph>>>
      epochs(graphs.size());
  std::vector<std::map<uint64_t, uint64_t>> fingerprints(graphs.size());
  std::vector<std::unique_ptr<fc::DynamicGraph>> dyn;
  for (size_t g = 0; g < graphs.size(); ++g) {
    dyn.push_back(std::make_unique<fc::DynamicGraph>(*bases[g], 0));
    epochs[g][0] = bases[g];
    fingerprints[g][0] = dyn[g]->fingerprint();
  }
  for (const AppliedBatch& batch : applied) {
    fc::DynamicGraph& d = *dyn[batch.graph];
    if (!d.Apply(batch.ops).ok()) {
      *error = "logged batch does not replay";
      return served.size();
    }
    epochs[batch.graph][d.version()] = d.snapshot();
    fingerprints[batch.graph][d.version()] = d.fingerprint();
  }
  AnswerChecker checker;
  size_t unknown = 0;
  for (const Served& s : served) {
    auto it = epochs[s.graph].find(s.version);
    if (it == epochs[s.graph].end() ||
        fingerprints[s.graph][s.version] != s.fingerprint) {
      ++unknown;
      continue;
    }
    checker.Record({it->second, s.fingerprint, graphs[s.graph].dataset,
                    s.key.k, s.key.delta, s.vertices});
  }
  if (unknown > 0) *error = "answers on epochs the log cannot rebuild";
  return unknown + checker.CheckAll(kWorkers + 1, unknown > 0 ? nullptr : error);
}

}  // namespace

RunResult RunServeMixed(const Args& args, LayerValues* layers) {
  RunResult run;
  const std::vector<GraphSpec> graphs = ServeGraphs();
  const std::string data_dir = args.out_dir + "/serve-data";
  MakeDirs(args.out_dir);

  // Set-up: generate, register with write-through persistence, wrap each
  // graph in a DynamicGraph, then warm up with a fixed number of
  // closed-loop queries from a stream that does not depend on the seed, so
  // neither does set-up time. Repeated, the last repetition kept.
  std::vector<double> setup_times;
  std::vector<double> add_seconds;
  std::unique_ptr<Service> service;
  std::vector<Served> served;
  uint64_t warm_failed = 0;
  const std::vector<ServeOp> warm =
      ServeStream(kWarmupSeed, 2.0 * kWarmupQueries / kServeRate, false);
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    service.reset();
    RemoveTree(data_dir);
    add_seconds.clear();
    served.clear();
    warm_failed = 0;
    double t0 = NowSeconds();
    service = BuildService(graphs, data_dir, &add_seconds);
    for (const GraphSpec& spec : graphs) {
      std::shared_ptr<const fc::RegisteredGraph> entry =
          service->registry.Get(spec.name);
      service->dynamics.push_back(
          std::make_unique<fc::DynamicGraph>(*entry->graph, entry->version));
    }
    for (size_t i = 0; i < kWarmupQueries && i < warm.size(); ++i) {
      fc::QueryRequest request = ServeRequest(*service, graphs, warm[i].key);
      const uint64_t version = request.graph->version;
      const uint64_t fingerprint = request.graph->fingerprint;
      fc::QueryResponse response =
          service->executor->Submit(std::move(request)).get();
      if (response.status.ok() && response.result != nullptr) {
        served.push_back({warm[i].key.graph, version, fingerprint, warm[i].key,
                          response.result->clique.vertices});
      } else {
        ++warm_failed;
      }
    }
    setup_times.push_back(NowSeconds() - t0);
  }
  // The kept warm-up's answers are checked with the rest, so they count.
  run.attempted += served.size() + warm_failed;
  run.failed += warm_failed;
  std::vector<std::shared_ptr<const fc::AttributedGraph>> bases;
  for (const GraphSpec& spec : graphs) {
    bases.push_back(service->registry.Get(spec.name)->graph);
  }
  std::vector<AppliedBatch> applied;

  // Settle: the same open loop, updates included, from a fixed stream and
  // not measured. Without it the timed loop opens with the first update of
  // every graph hitting caches that no update has churned yet.
  {
    Loop settle = OpenLoop(*service, graphs,
                           ServeStream(kSettleSeed, kSettleSeconds, true),
                           kSettleSeconds, nullptr, &served, &applied);
    run.failed += settle.failed;
    run.attempted += settle.attempted;
  }

  const fc::ExecutorMetrics m0 = service->executor->metrics();
  const fc::ResultCacheStats c0 = service->cache.Stats();
  const fc::PreparedGraphCacheStats p0 = service->prepared.Stats();
  const fc::storage::StorageCounters s0 = service->storage->counters();
  Tracer tracer(args.trace);
  Loop loop = OpenLoop(*service, graphs,
                       ServeStream(args.seed, args.seconds, true),
                       args.seconds, args.trace ? &tracer : nullptr, &served,
                       &applied);
  const double peak_rss = PeakRssMb();
  const fc::ExecutorMetrics m1 = service->executor->metrics();
  const fc::ResultCacheStats c1 = service->cache.Stats();
  const fc::PreparedGraphCacheStats p1 = service->prepared.Stats();
  const fc::storage::StorageCounters s1 = service->storage->counters();
  service.reset();
  RemoveTree(data_dir);
  run.attempted += loop.attempted;
  run.failed += loop.failed;

  std::string first_error;
  const size_t wrong = CheckServed(graphs, bases, applied, served, &first_error);
  if (wrong > 0) {
    std::fprintf(stderr, "perfbench: %zu wrong answers; first: %s\n", wrong,
                 first_error.c_str());
    run.correct = false;
    run.failed += wrong;
  }
  size_t good = 0;
  for (double ms : loop.latency_ms) good += ms <= kLatencyLimitMs ? 1 : 0;
  good -= std::min(good, wrong);

  Tail tail = TailOf(loop.latency_ms);
  Tail update_tail = TailOf(loop.update_ms);
  run.Add("setup_s", Median(setup_times), "s");
  run.Add("query_p50_ms", Median(loop.latency_ms), "ms");
  run.Add("query_tail_ms", tail.value, "ms");
  run.Add("goodput_qps", static_cast<double>(good) / loop.wall, "1/s");
  run.Add("peak_rss_mb", peak_rss, "MB");
  char note[400];
  std::snprintf(
      note, sizeof(note),
      "ops=%llu queries=%zu updates=%zu rate=%g/s tail=p%g (n=%zu) "
      "update_tail=p%g (n=%zu) latency_limit_ms=%g wall_s=%.2f pool_busy=%.3f "
      "setups_s=%.3f..%.3f max_lag_ms=%.2f max_update_ms=%.2f",
      static_cast<unsigned long long>(loop.attempted), loop.latency_ms.size(),
      loop.update_ms.size(), kServeRate, tail.percentile, tail.samples,
      update_tail.percentile, update_tail.samples, kLatencyLimitMs, loop.wall,
      Mean(loop.busy),
      *std::min_element(setup_times.begin(), setup_times.end()),
      *std::max_element(setup_times.begin(), setup_times.end()),
      Percentile(loop.lag_ms, 1.0), Percentile(loop.update_ms, 1.0));
  run.notes.push_back(note);

  LayerValues& L = *layers;
  const double queries = static_cast<double>(loop.latency_ms.size());
  const double branched = static_cast<double>(loop.branched);
  L["service.queue_wait_ms"] = Median(loop.queue_ms);
  L["service.run_ms"] = Median(loop.run_ms);
  L["service.finish_ms"] = Median(loop.finish_ms);
  L["service.result_hit_ratio"] = queries > 0 ? loop.hits / queries : 0.0;
  L["service.prepared_hit_ratio"] =
      branched > 0 ? loop.prepared_hits / branched : 0.0;
  L["service.incremental_ratio"] =
      queries > 0 ? loop.incremental / queries : 0.0;
  L["service.result_evictions"] =
      static_cast<double>(c1.evictions - c0.evictions);
  L["service.prepared_evictions"] =
      static_cast<double>(p1.evictions - p0.evictions);
  L["service.component_tasks_per_query"] =
      branched > 0
          ? static_cast<double>(m1.component_tasks - m0.component_tasks) /
                branched
          : 0.0;
  L["service.peak_queue_depth"] = static_cast<double>(m1.peak_queue_depth);
  L["service.pool_busy_ratio"] = Mean(loop.busy);
  L["service.replace_ms"] = Median(loop.replace_ms);
  L["service.migration_invalidated"] = static_cast<double>(loop.migration[0]);
  L["service.migration_republished"] = static_cast<double>(loop.migration[1]);
  L["service.migration_hints"] = static_cast<double>(loop.migration[2]);
  L["dynamic.apply_ms"] = Median(loop.apply_ms);
  L["update_p50_ms"] = Median(loop.update_ms);
  L["update_tail_ms"] = update_tail.value;
  L["storage.persist_ms"] = Ms(Median(add_seconds));
  L["storage.wal_append_ms"] = Median(loop.append_ms);
  const uint64_t appended = s1.wal_records_appended - s0.wal_records_appended;
  const uint64_t groups = s1.wal_group_commits - s0.wal_group_commits;
  L["storage.wal_bytes_per_update"] = Median(loop.wal_bytes);
  L["storage.records_per_fsync"] =
      groups > 0 ? static_cast<double>(appended) / groups : 0.0;
  L["bench.generator_lag_ms"] = Mean(loop.lag_ms);
  L["error_rate"] = run.attempted > 0 ? static_cast<double>(run.failed) /
                                            static_cast<double>(run.attempted)
                                      : 0.0;
  if (args.trace) {
    double root = 0.0;
    for (const Span& span : tracer.spans()) {
      if (span.parent < 0) root += span.end - span.start;
    }
    double children = 0.0;
    for (const auto& [name, seconds] : tracer.SelfTimes()) {
      if (name != "bench.query" && name != "bench.update") children += seconds;
    }
    L["trace.coverage_pct"] = root > 0 ? children / root * 100.0 : 0.0;
    std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    if (tracer.WriteJson(path, L)) run.notes.push_back("trace: " + path);
  }
  return run;
}

}  // namespace perfbench
