#include "service/query_executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/bitset_simd.h"
#include "core/options_key.h"
#include "dynamic/incremental_search.h"
#include "obs/event_journal.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "service/wire.h"

namespace fairclique {

namespace {

/// Above this many outstanding added edges, the per-edge neighborhood
/// searches of IncrementalRequery approach full-search cost; fall back to a
/// warm-started full search instead.
constexpr size_t kMaxIncrementalEdges = 256;

/// Maps a search's stop reason onto the response's wire string. A time
/// stop is reported as "deadline" when the request deadline set the limit.
const char* ResponseStopReason(const SearchStats& stats,
                               bool deadline_tightened) {
  if (stats.stop_reason == StopReason::kTimeLimit && deadline_tightened) {
    return "deadline";
  }
  return StopReasonName(stats.stop_reason);
}

}  // namespace

struct QueryExecutor::QueryState {
  QueryRequest request;
  std::promise<QueryResponse> promise;
  WallTimer queued;     // from Pending; meaningless for synchronous Run()
  WallTimer run_timer;  // restarted when processing begins
  WallTimer search_timer;
  QueryResponse response;

  SearchOptions effective;
  std::string cache_key;
  bool use_cache = false;
  /// A non-incremental warm hint consumed from the cache; put back when a
  /// deadline truncates the search it seeded.
  std::optional<WarmHint> hint;

  /// The incumbent the Branch stage starts from; moved into `stage`.
  IncumbentSeed seed;
  std::shared_ptr<const PreparedGraph> prepared;
  int64_t prepare_micros = 0;  // 0 on a prepared-cache hit
  /// The seed reached HeurRFC's bound: the plan is CertifiedPlan's, and no
  /// prepare stage ran.
  bool certified = false;
  Deadline deadline;           // spans prepare + branch, like the monolith
  /// True when the per-query deadline is what set (or lowered) the
  /// effective time limit — a kTimeLimit stop is then reported as
  /// "deadline", not "time_limit".
  bool deadline_tightened = false;

  /// Live-progress entry in the ProgressRegistry, keyed by trace_id. Held
  /// through an RAII handle: whenever this QueryState dies — normal
  /// completion, an exception unwinding a worker, an abandoned submit —
  /// the registry entry goes with it, so a phantom in-flight query can
  /// never outlive its query. Empty when telemetry is off or nothing was
  /// selected to search.
  obs::ProgressRegistration progress;

  /// The Branch stage: seed, shared floor, selected components and their
  /// per-task results. Empty until StartBranch.
  std::optional<BranchStage> stage;

  // Stage timestamps for the trace (obs/trace.h), relative to Submit
  // (qs.queued). Captured as plain integers on the hot path; the Trace
  // object is only assembled for queries slow enough for the slowlog.
  bool from_queue = false;     // admitted from the queue (vs synchronous Run)
  int64_t t_admit = 0;         // processing began (== queue wait)
  int64_t t_probe_end = -1;    // result-cache probe + hint handling done
  int64_t t_seed_end = -1;     // incumbent seeded
  int64_t t_prepare_end = -1;  // prepared plan in hand
  int64_t t_branch_end = -1;   // Branch stage done (aggregation follows)
  /// Per-task Branch start times; each slot is written only by its own
  /// component task and read by the final task (after the stage's acq_rel
  /// task-counter handoff), so no locking is needed.
  std::vector<int64_t> comp_start_micros;
};

QueryExecutor::QueryExecutor(const ExecutorOptions& options, ResultCache* cache,
                             PreparedGraphCache* prepared_cache)
    : options_(options),
      cache_(cache),
      prepared_cache_(prepared_cache),
      queue_wait_hist_(obs::QueryQueueWaitHistogram()),
      run_hist_(obs::QueryRunHistogram()),
      prepare_hist_(obs::QueryPrepareHistogram()),
      branch_hist_(obs::QueryBranchHistogram()) {
  int workers = std::max(1, options_.num_workers);
  // workers_ is guarded by shutdown_mu_; the analysis does not exempt
  // constructor bodies, and locking here is free (nothing can contend yet).
  fc::MutexLock lock(shutdown_mu_);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryExecutor::~QueryExecutor() { Shutdown(); }

std::future<QueryResponse> QueryExecutor::Submit(QueryRequest request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();

  const char* graph_name =
      request.graph != nullptr ? request.graph->name.c_str() : nullptr;
  {
    fc::MutexLock lock(mu_);
    if (!stopping_ && queue_.size() < options_.queue_capacity) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      Pending pending;
      pending.request = std::move(request);
      pending.promise = std::move(promise);
      queue_.push_back(std::move(pending));
      ++inflight_;
      peak_queue_depth_ = std::max(
          peak_queue_depth_, queue_.size() + component_queue_.size());
      obs::EventJournal::Default().Record(obs::EventType::kQueryAdmit,
                                          queue_.size(), 0, 0, graph_name);
      work_ready_.NotifyOne();
      return future;
    }
  }

  // Rejection path: satisfy the future immediately instead of blocking.
  rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::EventJournal::Default().Record(obs::EventType::kQueryReject,
                                      options_.queue_capacity, 0, 0,
                                      graph_name);
  QueryResponse response;
  response.status = Status::Aborted("queue full or executor shut down");
  promise.set_value(std::move(response));
  return future;
}

bool QueryExecutor::PreSearch(QueryState& qs) {
  const QueryRequest& request = qs.request;
  qs.run_timer.Restart();

  if (obs::Enabled()) {
    qs.response.trace_id = obs::NextTraceId();
    // run_timer was just restarted, so its start IS the admission instant:
    // derive the queue wait from the two existing timestamps instead of a
    // third clock read (this runs on every query, cache hits included).
    qs.t_admit = qs.run_timer.StartMicrosSince(qs.queued);
    if (qs.t_admit < 0) qs.t_admit = 0;
    if (qs.from_queue) queue_wait_hist_->Record(qs.t_admit);
  }

  if (request.graph == nullptr || request.graph->graph == nullptr) {
    qs.response.status = Status::InvalidArgument("request has no graph");
    return true;
  }
  if (!std::isfinite(request.deadline_seconds) ||
      request.deadline_seconds < 0.0 ||
      !std::isfinite(request.options.time_limit_seconds)) {
    qs.response.status = Status::InvalidArgument(
        "deadline and time limit must be finite; a deadline must be >= 0");
    return true;
  }

  // The deadline is anchored at Submit (qs.queued started there), so queue
  // wait burns budget. A request popped already-dead is expired for the
  // cost of this clock read — before even the cache probe: its latency
  // bound is blown either way, and the client has stopped waiting.
  double remaining_deadline = 0.0;
  if (request.deadline_seconds > 0.0) {
    remaining_deadline =
        request.deadline_seconds - qs.queued.ElapsedSeconds();
    if (remaining_deadline <= 0.0) {
      char deadline[32];
      std::snprintf(deadline, sizeof(deadline), "%g",
                    request.deadline_seconds);
      qs.response.status = Status::Aborted(
          std::string("deadline of ") + deadline +
          "s expired while the request waited in the queue");
      qs.response.deadline_missed = true;
      qs.response.stop_reason = "deadline";
      qs.response.run_micros = qs.run_timer.ElapsedMicros();
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      stopped_deadline_.fetch_add(1, std::memory_order_relaxed);
      obs::EventJournal::Default().Record(obs::EventType::kQueryExpire,
                                          qs.response.trace_id, 0, 0,
                                          request.graph->name.c_str());
      return true;
    }
  }

  qs.use_cache = cache_ != nullptr && !request.bypass_cache;
  if (qs.use_cache) {
    qs.cache_key =
        ResultCache::MakeKey(request.graph->fingerprint, request.options);
    if (std::shared_ptr<const SearchResult> cached = cache_->Get(qs.cache_key)) {
      qs.response.result = std::move(cached);
      qs.response.cache_hit = true;
      qs.response.run_micros = qs.run_timer.ElapsedMicros();
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }

  // Map what is LEFT of the per-query deadline onto the search's own
  // safety valve (0 = unlimited on both sides).
  qs.effective = request.options;
  if (request.deadline_seconds > 0.0) {
    qs.deadline_tightened =
        qs.effective.time_limit_seconds <= 0.0 ||
        remaining_deadline < qs.effective.time_limit_seconds;
    qs.effective.time_limit_seconds =
        qs.effective.time_limit_seconds > 0.0
            ? std::min(qs.effective.time_limit_seconds, remaining_deadline)
            : remaining_deadline;
  }

  // Warm hint: a cached clique that survived graph updates. exact_chain
  // hints with few outstanding edges answer exactly via the incremental
  // re-query; everything else still seeds the incumbent for a full search.
  std::optional<WarmHint> hint;
  if (qs.use_cache) hint = cache_->TakeHint(qs.cache_key);
  if (qs.response.trace_id != 0) qs.t_probe_end = qs.queued.ElapsedMicros();
  if (hint.has_value() && hint->exact_chain &&
      hint->new_edges.size() <= kMaxIncrementalEdges) {
    auto result = std::make_shared<SearchResult>(IncrementalRequery(
        *request.graph->graph, hint->new_edges, hint->clique, qs.effective));
    qs.response.deadline_missed = !result->stats.completed;
    qs.response.stop_reason =
        ResponseStopReason(result->stats, qs.deadline_tightened);
    CountStop(qs, result->stats);
    if (qs.response.deadline_missed) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      // Give the (one-shot) hint back: this query's budget was too tight,
      // but the exact chain is still valid for the next one.
      cache_->PutHint(qs.cache_key, std::move(*hint));
    } else {
      cache_->Put(qs.cache_key, result, request.options.params);
    }
    qs.response.result = std::move(result);
    qs.response.incremental = true;
    qs.response.run_micros = qs.run_timer.ElapsedMicros();
    incremental_requeries_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (hint.has_value() && !hint->clique.vertices.empty()) {
    qs.effective.warm_start = hint->clique.vertices;
    qs.response.warm_start = true;
    warm_starts_.fetch_add(1, std::memory_order_relaxed);
    qs.hint = std::move(hint);
  }

  // The deadline spans prepare + branch, matching the monolithic search
  // where reduction time counted against the budget.
  qs.deadline = Deadline(qs.effective.time_limit_seconds);

  // Prepared plan. A plan cached at the request's k serves as it is,
  // seeded on its reduced graph. Otherwise the query seeds on the input
  // graph first. A certified seed is the answer: it branches on an empty
  // plan that is neither built nor published. Any other seed prepares at
  // the lifted k (SeedAndLift), so the reduction keeps only what could
  // beat the seed. Plans are keyed by
  // (fingerprint, plan k, reductions) only, so a delta/bound sweep on one
  // graph reduces once per plan k, and a lifted plan is shared and
  // single-flighted like any other.
  const AttributedGraph& g = *request.graph->graph;
  const uint64_t fingerprint = request.graph->fingerprint;
  const bool use_prepared =
      prepared_cache_ != nullptr && !request.bypass_prepared_cache;
  if (use_prepared) {
    qs.prepared = prepared_cache_->Get(PreparedGraphCache::MakeKey(
        fingerprint, qs.effective.params.k, qs.effective.reductions));
  }
  if (qs.prepared != nullptr) {
    qs.seed = SeedIncumbent(g, *qs.prepared, qs.effective);
    if (qs.response.trace_id != 0) qs.t_seed_end = qs.queued.ElapsedMicros();
    qs.response.prepared_hit = true;
    prepared_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    LiftedSeed lifted = SeedAndLift(g, qs.effective);
    qs.seed = std::move(lifted.seed);
    if (qs.response.trace_id != 0) qs.t_seed_end = qs.queued.ElapsedMicros();
    const int plan_k = lifted.plan_k;
    qs.certified = lifted.certified;
    if (qs.certified) {
      qs.prepared = CertifiedPlan(plan_k, qs.effective.reductions);
      certified_.fetch_add(1, std::memory_order_relaxed);
    } else {
      auto build = [&] {
        return PrepareGraph(g, plan_k, qs.effective.reductions, this);
      };
      WallTimer prepare_timer;
      bool built = true;
      if (use_prepared) {
        // Single-flight through the cache: concurrent identical cold
        // queries share one reduction; only the builder pays (and logs) it.
        qs.prepared = prepared_cache_->GetOrPrepare(
            PreparedGraphCache::MakeKey(fingerprint, plan_k,
                                        qs.effective.reductions),
            fingerprint, build, &built);
      } else {
        qs.prepared = build();
      }
      if (built) {
        qs.prepare_micros = prepare_timer.ElapsedMicros();
        prepared_builds_.fetch_add(1, std::memory_order_relaxed);
      } else {
        qs.response.prepared_hit = true;
        prepared_hits_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Branch at the plan's k: every fair clique that beats the seed is fair
  // at that k too, and the seed stays the answer when none does.
  qs.effective.params.k = qs.prepared->k;
  if (qs.response.trace_id != 0) {
    // A certified query has no prepare stage: its branch span starts where
    // the seed's ends.
    if (qs.certified) {
      qs.t_prepare_end = qs.t_seed_end;
    } else {
      qs.t_prepare_end = qs.queued.ElapsedMicros();
      prepare_hist_->Record(qs.t_prepare_end - qs.t_seed_end);
    }
  }
  return false;
}

void QueryExecutor::CountStop(const QueryState& qs, const SearchStats& stats) {
  switch (stats.stop_reason) {
    case StopReason::kNone:
      break;
    case StopReason::kNodeLimit:
      stopped_node_limit_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StopReason::kTimeLimit:
      (qs.deadline_tightened ? stopped_deadline_ : stopped_time_limit_)
          .fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void QueryExecutor::FinishSearch(QueryState& qs, SearchResult&& sr) {
  auto result = std::make_shared<SearchResult>(std::move(sr));
  qs.response.deadline_missed = !result->stats.completed;
  qs.response.stop_reason =
      ResponseStopReason(result->stats, qs.deadline_tightened);
  CountStop(qs, result->stats);
  if (qs.response.deadline_missed) {
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    // A hint consumed by a query whose budget was too tight goes back for
    // the next query.
    if (qs.hint.has_value() && qs.use_cache) {
      cache_->PutHint(qs.cache_key, std::move(*qs.hint));
    }
  } else if (qs.use_cache) {
    // Only completed searches are cached: a truncated result under a tight
    // deadline must not be replayed to a later query with a looser one.
    // The key is the *request's* options, so repeat queries hit even when a
    // deadline tightened the effective limit (completion makes them equal).
    cache_->Put(qs.cache_key, result, qs.request.options.params);
  }
  qs.response.result = std::move(result);
  qs.response.run_micros = qs.run_timer.ElapsedMicros();
}

void QueryExecutor::BuildExplain(QueryState& qs) {
  // A query answered before the Branch stage (result-cache hit, incremental
  // re-query, expired or invalid request) has no plan, seed or components:
  // its plan records the cache decision and leaves every other value zero.
  static const PreparedGraph kNotPrepared;
  const SearchStats not_searched;
  const BranchStage* stage = qs.stage.has_value() ? &*qs.stage : nullptr;
  const PreparedGraph& prepared =
      stage != nullptr ? *qs.prepared : kNotPrepared;
  const SearchStats& totals =
      stage != nullptr ? qs.response.result->stats : not_searched;
  auto write_stats = [](wire::JsonWriter& w, const SearchStats& s) {
    w.Field("nodes", s.nodes)
        .Field("bound_prunes", s.bound_prunes)
        .Field("size_prunes", s.size_prunes)
        .Field("attr_prunes", s.attr_prunes)
        .Field("cap_removals", s.cap_removals);
  };

  wire::JsonWriter w;
  w.BeginObject();

  w.Key("prepare").BeginObject();
  w.Field("prepared_hit", qs.response.prepared_hit)
      .Field("prepare_micros", qs.prepare_micros)
      .Field("source_vertices", prepared.source_vertices)
      .Field("source_edges", prepared.source_edges);
  w.Key("stages").BeginArray();
  for (const ReductionStageStats& s : prepared.stages) {
    w.BeginObject()
        .Field("name", s.name)
        .Field("vertices_left", s.vertices_left)
        .Field("edges_left", s.edges_left)
        .Field("micros", s.micros)
        .EndObject();
  }
  w.EndArray();
  w.Field("reduced_vertices", prepared.reduced.num_vertices())
      .Field("reduced_edges", prepared.reduced.num_edges());
  w.EndObject();

  w.Key("result_cache").BeginObject();
  w.Field("probed", qs.use_cache)
      .Field("hit", qs.response.cache_hit)
      .EndObject();

  // lifted_k is the k the plan was prepared and branched at: the
  // request's k on a plan hit, SeedAndLift's on a miss. upper_bound is
  // HeurRFC's color bound (0 when it did not run); a certified seed reached
  // it, so its plan has no stages and no components.
  static const IncumbentSeed kNoSeed;
  const IncumbentSeed& seed = stage != nullptr ? stage->seed() : kNoSeed;
  const char* seed_source = seed.from_warm_start ? "warm_start"
                            : seed.clique.empty() ? "none"
                                                  : "heuristic";
  w.Key("seed").BeginObject();
  w.Field("heuristic_micros", totals.heuristic_micros)
      .Field("heuristic_size", totals.heuristic_size)
      .Field("warm_start", qs.response.warm_start)
      .Field("lifted_k", stage != nullptr ? prepared.k : 0)
      .Field("seed_source", stage != nullptr ? seed_source : "")
      .Field("seed_micros", seed.seed_micros)
      .Field("seed_size", seed.clique.size())
      .Field("upper_bound", seed.upper_bound)
      .Field("certified", qs.certified)
      .EndObject();

  // The SIMD variant the bitset word ops ran with and the memory budget
  // the engine rule allowed the bitset engine's adjacency arena.
  w.Key("kernel").BeginObject();
  w.Field("simd", stage != nullptr ? simd::ActiveName() : "")
      .Field("bitset_budget_bytes",
             stage != nullptr ? BitsetArenaBudgetBytes() : 0)
      .EndObject();

  // Components in prepared order (largest first); kNotPrepared has none, so
  // this loop runs only with a stage. The stage's task components ascend,
  // so one cursor pairs tasks with components; the rest were skipped as
  // too small to beat the seed.
  w.Key("components").BeginArray();
  size_t task = 0;
  for (size_t i = 0; i < prepared.components.size(); ++i) {
    const AttributedGraph& cg = prepared.components[i]->graph;
    const bool searched =
        task < stage->num_tasks() && stage->components()[task] == i;
    w.BeginObject()
        .Field("index", i)
        .Field("vertices", cg.num_vertices())
        .Field("edges", cg.num_edges())
        .Field("searched", searched);
    if (searched) {
      const ComponentBranchResult& r = stage->results()[task++];
      const EngineDecision decision =
          ResolveEngineDecision(qs.effective.engine, cg.num_vertices());
      w.Field("engine", SearchEngineName(decision.engine))
          .Field("arena_bytes", decision.arena_bytes);
      write_stats(w, r.stats);
      w.Field("search_micros", r.stats.search_micros)
          .Field("aborted", r.aborted)
          .Field("best_size", r.best.size());
    }
    w.EndObject();
  }
  w.EndArray();

  w.Key("totals").BeginObject();
  write_stats(w, totals);
  w.Field("component_search_micros", totals.component_search_micros)
      .Field("search_micros", totals.search_micros)
      .Field("completed", totals.completed)
      .Field("stop_reason", stage != nullptr ? qs.response.stop_reason : "")
      .EndObject();

  w.EndObject();
  qs.response.plan_json = w.str();
}

void QueryExecutor::RecordTelemetry(QueryState& qs) {
  if (qs.response.trace_id == 0) return;  // telemetry was off at admission
  const int64_t run = qs.response.run_micros;
  run_hist_->Record(run);
  obs::Slowlog& slowlog = obs::Slowlog::Default();
  if (!slowlog.Admits(run)) return;

  auto trace = std::make_shared<obs::Trace>();
  trace->id = qs.response.trace_id;
  if (qs.request.graph != nullptr) trace->graph = qs.request.graph->name;
  trace->options = CanonicalOptionsKey(qs.request.options);
  trace->queue_micros = qs.from_queue ? qs.t_admit : 0;
  trace->run_micros = run;
  trace->total_micros = std::max(qs.queued.ElapsedMicros(), qs.t_admit);
  trace->ok = qs.response.status.ok();
  trace->cache_hit = qs.response.cache_hit;
  trace->prepared_hit = qs.response.prepared_hit;
  trace->incremental = qs.response.incremental;
  trace->warm_start = qs.response.warm_start;
  trace->deadline_missed = qs.response.deadline_missed;
  trace->stop_reason = qs.response.stop_reason;
  trace->explain_json = qs.response.plan_json;

  const int64_t t_end = trace->total_micros;
  auto add_span = [&trace](const char* name, int32_t parent, int64_t start,
                           int64_t end) {
    obs::TraceSpan span;
    span.name = name;
    span.parent = parent;
    span.start_micros = start;
    span.duration_micros = end > start ? end - start : 0;
    trace->spans.push_back(span);
  };

  if (qs.from_queue) add_span("queue", -1, 0, qs.t_admit);
  if (qs.t_probe_end < 0) {
    // The response completed inside the probe stage: a result-cache hit, a
    // request that expired in the queue, or a validation failure — one span
    // covers the whole run.
    const char* name = qs.response.cache_hit         ? "result_cache_probe"
                       : qs.response.deadline_missed ? "expired_in_queue"
                                                     : "validate";
    add_span(name, -1, qs.t_admit, t_end);
  } else if (qs.response.incremental) {
    add_span("result_cache_probe", -1, qs.t_admit, qs.t_probe_end);
    add_span("incremental_requery", -1, qs.t_probe_end, t_end);
  } else {
    const int64_t t_seed_end =
        qs.t_seed_end >= 0 ? qs.t_seed_end : qs.t_probe_end;
    const int64_t t_prepare_end =
        qs.t_prepare_end >= 0 ? qs.t_prepare_end : t_seed_end;
    const int64_t t_branch_end =
        qs.t_branch_end >= 0 ? qs.t_branch_end : t_prepare_end;
    add_span("result_cache_probe", -1, qs.t_admit, qs.t_probe_end);
    // On a plan hit the plan probe precedes the seed and is charged to it.
    add_span("seed", -1, qs.t_probe_end, t_seed_end);
    if (!qs.certified) add_span("prepare", -1, t_seed_end, t_prepare_end);
    const int32_t branch_span = static_cast<int32_t>(trace->spans.size());
    add_span("branch", -1, t_prepare_end, t_branch_end);
    for (size_t i = 0; i < qs.comp_start_micros.size(); ++i) {
      const int64_t start = qs.comp_start_micros[i];
      if (start <= 0) continue;  // task never ran (or telemetry raced off)
      add_span("component", branch_span, start,
               start + qs.stage->results()[i].stats.search_micros);
    }
    add_span("finish", -1, t_branch_end, t_end);
  }
  slowlog.Record(std::move(trace));
}

QueryResponse QueryExecutor::Run(const QueryRequest& request) {
  QueryState qs;
  qs.request = request;
  qs.queued.Restart();  // the synchronous "submit" is this very call
  if (!PreSearch(qs)) {
    // The same Branch stage the pool runs, its tasks in order on this
    // thread.
    const size_t n = StartBranch(qs);
    for (size_t task = 0; task < n; ++task) RunBranchTask(qs, task);
    FinishBranch(qs);
  }
  FinishQuery(qs);
  return std::move(qs.response);
}

size_t QueryExecutor::StartBranch(QueryState& qs) {
  const BranchStage& stage = qs.stage.emplace(
      *qs.prepared, qs.effective, qs.deadline, std::move(qs.seed));
  const size_t n = stage.num_tasks();
  qs.search_timer.Restart();
  qs.comp_start_micros.assign(n, 0);
  if (n == 0) return 0;
  if (qs.response.trace_id != 0) {
    // Publish this query in the live-progress registry for the duration of
    // its Branch stage.
    qs.progress = obs::ProgressRegistry::Default().RegisterScoped(
        qs.response.trace_id, qs.request.graph->name,
        CanonicalOptionsKey(qs.request.options), n);
    if (qs.effective.time_limit_seconds > 0.0) {
      // Capped below 2^63 so a huge (finite) limit cannot overflow the cast.
      qs.progress->SetDeadlineMicros(static_cast<int64_t>(
          std::min(qs.effective.time_limit_seconds * 1e6, 9e18)));
    }
    qs.stage->AttachProgress(qs.progress.get());
  }
  obs::EventJournal::Default().Record(
      obs::EventType::kQueryStart, qs.response.trace_id, n,
      stage.seed().clique.size(), qs.request.graph->name.c_str());
  // One engine-decision breadcrumb per query, for the largest selected
  // component (the stage's components ascend over largest-first ones).
  const EngineDecision decision = ResolveEngineDecision(
      qs.effective.engine,
      qs.prepared->components[stage.components()[0]]->graph.num_vertices());
  obs::EventJournal::Default().Record(
      obs::EventType::kEngineDecision, qs.response.trace_id,
      decision.arena_bytes, 0, SearchEngineName(decision.engine));
  return n;
}

bool QueryExecutor::RunBranchTask(QueryState& qs, size_t task) {
  if (qs.response.trace_id != 0) {
    // Slot-owned; published to the finalizer by the stage's handoff.
    qs.comp_start_micros[task] = qs.queued.ElapsedMicros();
  }
  BranchStage& stage = *qs.stage;
  obs::EventJournal::Default().Record(
      obs::EventType::kTaskBegin, qs.response.trace_id, task,
      qs.prepared->components[stage.components()[task]]
          ->graph.num_vertices());
  const bool last = stage.RunTask(task);
  // The query state outlives every task (tasks hold it), and nothing writes
  // a task's result after RunTask, so reading it past the handoff is safe.
  obs::EventJournal::Default().Record(
      obs::EventType::kTaskEnd, qs.response.trace_id, task,
      static_cast<uint64_t>(stage.results()[task].stats.nodes));
  return last;
}

void QueryExecutor::FinishBranch(QueryState& qs) {
  qs.progress.Reset();
  if (qs.response.trace_id != 0) {
    qs.t_branch_end = qs.queued.ElapsedMicros();
    branch_hist_->Record(qs.t_branch_end - qs.t_prepare_end);
  }
  SearchResult sr = qs.stage->Aggregate();
  sr.stats.reduce_micros = qs.prepare_micros;
  sr.stats.search_micros = qs.search_timer.ElapsedMicros();
  sr.stats.total_micros = qs.run_timer.ElapsedMicros();
  FinishSearch(qs, std::move(sr));
}

void QueryExecutor::ExpandQuery(std::shared_ptr<QueryState> qs) {
  const size_t n = StartBranch(*qs);
  if (n == 0) {
    FinalizeQuery(*qs);
    return;
  }
  component_tasks_.fetch_add(n, std::memory_order_relaxed);
  fc::MutexLock lock(mu_);
  for (size_t task = 0; task < n; ++task) {
    component_queue_.push_back(ComponentTask{qs, task});
  }
  peak_queue_depth_ =
      std::max(peak_queue_depth_, queue_.size() + component_queue_.size());
  work_ready_.NotifyAll();
}

void QueryExecutor::FinalizeQuery(QueryState& qs) {
  FinishBranch(qs);
  CompleteQuery(qs);
}

void QueryExecutor::FinishQuery(QueryState& qs) {
  if (qs.request.explain) BuildExplain(qs);
  served_.fetch_add(1, std::memory_order_relaxed);
  if (qs.from_queue) {
    qs.response.queue_micros =
        qs.queued.ElapsedMicros() - qs.response.run_micros;
  }
  RecordTelemetry(qs);
  // Journal only queries that did real work. A cache hit serves in well
  // under a microsecond at millions of q/s: journaling each one would both
  // blow the <5% cached-hit overhead budget and flush the entire ring in
  // milliseconds, destroying the flight record's value exactly when it is
  // needed. Hits remain visible through fc_executor_cache_hits_total.
  if (qs.response.cache_hit) return;
  obs::EventJournal::Default().Record(
      obs::EventType::kQueryFinish, qs.response.trace_id,
      qs.response.result != nullptr ? qs.response.result->clique.size() : 0,
      static_cast<uint64_t>(qs.response.run_micros),
      qs.request.graph != nullptr ? qs.request.graph->name.c_str() : nullptr);
}

void QueryExecutor::CompleteQuery(QueryState& qs) {
  FinishQuery(qs);
  qs.promise.set_value(std::move(qs.response));
  {
    fc::MutexLock lock(mu_);
    --inflight_;
    if (inflight_ == 0) idle_.NotifyAll();
  }
}

void QueryExecutor::Drain() {
  fc::MutexLock lock(mu_);
  while (inflight_ != 0) idle_.Wait(lock);
}

void QueryExecutor::Shutdown() {
  // Serialized on its own mutex so a concurrent caller (e.g. the destructor
  // racing an explicit Shutdown) blocks until the workers are actually
  // joined, rather than returning while they still run. Workers never call
  // Shutdown, so this cannot deadlock.
  fc::MutexLock shutdown_lock(shutdown_mu_);
  {
    fc::MutexLock lock(mu_);
    stopping_ = true;
    work_ready_.NotifyAll();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void QueryExecutor::Offer(const std::shared_ptr<ParallelJob>& job,
                          size_t max_helpers) {
  fc::MutexLock lock(mu_);
  if (stopping_) return;
  // Idle workers already handed an assist entry have not woken yet.
  const size_t free_workers = idle_workers_ > assist_queue_.size()
                                  ? idle_workers_ - assist_queue_.size()
                                  : 0;
  const size_t count = std::min(free_workers, max_helpers);
  for (size_t i = 0; i < count; ++i) {
    assist_queue_.push_back(job);
    work_ready_.NotifyOne();
  }
}

void QueryExecutor::WorkerLoop() {
  while (true) {
    std::shared_ptr<ParallelJob> assist;
    ComponentTask task;
    Pending pending;
    enum class Work { kNone, kAssist, kComponent, kQuery } work = Work::kNone;
    {
      fc::MutexLock lock(mu_);
      while (!stopping_ && assist_queue_.empty() && component_queue_.empty() &&
             queue_.empty()) {
        ++idle_workers_;
        work_ready_.Wait(lock);
        --idle_workers_;
      }
      // Assists first: a query on another worker is waiting on them. Then
      // component tasks: finishing in-flight queries beats admitting new
      // ones (and is what frees their memory).
      if (!assist_queue_.empty()) {
        assist = std::move(assist_queue_.front());
        assist_queue_.pop_front();
        work = Work::kAssist;
      } else if (!component_queue_.empty()) {
        task = std::move(component_queue_.front());
        component_queue_.pop_front();
        work = Work::kComponent;
      } else if (!queue_.empty()) {
        pending = std::move(queue_.front());
        queue_.pop_front();
        work = Work::kQuery;
      } else {
        return;  // stopping_ && every queue drained
      }
    }
    active_workers_.fetch_add(1, std::memory_order_relaxed);
    if (work == Work::kAssist) {
      assist->Help();
    } else if (work == Work::kComponent) {
      if (RunBranchTask(*task.query, task.slot)) FinalizeQuery(*task.query);
    } else {
      auto qs = std::make_shared<QueryState>();
      qs->request = std::move(pending.request);
      qs->promise = std::move(pending.promise);
      qs->queued = pending.queued;
      qs->from_queue = true;
      if (PreSearch(*qs)) {
        CompleteQuery(*qs);
      } else {
        ExpandQuery(std::move(qs));
      }
    }
    active_workers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

ExecutorMetrics QueryExecutor::metrics() const {
  ExecutorMetrics m;
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.accepted = accepted_.load(std::memory_order_relaxed);
  m.rejected = rejected_.load(std::memory_order_relaxed);
  m.served = served_.load(std::memory_order_relaxed);
  m.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  m.incremental_requeries =
      incremental_requeries_.load(std::memory_order_relaxed);
  m.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  m.prepared_hits = prepared_hits_.load(std::memory_order_relaxed);
  m.prepared_builds = prepared_builds_.load(std::memory_order_relaxed);
  m.certified = certified_.load(std::memory_order_relaxed);
  m.component_tasks = component_tasks_.load(std::memory_order_relaxed);
  m.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  m.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  m.stopped_node_limit = stopped_node_limit_.load(std::memory_order_relaxed);
  m.stopped_time_limit = stopped_time_limit_.load(std::memory_order_relaxed);
  m.stopped_deadline = stopped_deadline_.load(std::memory_order_relaxed);
  m.num_workers = static_cast<size_t>(std::max(1, options_.num_workers));
  m.active_workers = active_workers_.load(std::memory_order_relaxed);
  fc::MutexLock lock(mu_);
  m.admission_queue_depth = queue_.size();
  m.component_queue_depth = component_queue_.size();
  m.queue_depth = m.admission_queue_depth + m.component_queue_depth;
  m.peak_queue_depth = peak_queue_depth_;
  return m;
}

}  // namespace fairclique
