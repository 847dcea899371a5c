#ifndef FAIRCLIQUE_SERVICE_QUERY_EXECUTOR_H_
#define FAIRCLIQUE_SERVICE_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/max_fair_clique.h"
#include "core/prepared_graph.h"
#include "obs/metrics.h"
#include "service/graph_registry.h"
#include "service/prepared_graph_cache.h"
#include "service/result_cache.h"

namespace fairclique {

/// Sizing of the query worker pool.
struct ExecutorOptions {
  /// Worker threads. Queued queries are expanded into *component-granular*
  /// tasks (one BranchStage task each) scheduled onto this pool: all
  /// in-flight queries' components interleave, so one huge component no
  /// longer monopolizes the pool while other queries' small components
  /// wait.
  int num_workers = 2;
  /// Requests waiting beyond the ones being executed. Submit rejects (does
  /// not block) once the queue is full, giving callers explicit
  /// backpressure. 0 means "no queueing": every Submit is rejected, which
  /// tests use to exercise the rejection path deterministically.
  size_t queue_capacity = 64;
};

/// One search request against a registered graph.
struct QueryRequest {
  std::shared_ptr<const RegisteredGraph> graph;  // required
  SearchOptions options;
  /// Per-query wall-clock budget in seconds; 0 = none. The clock is
  /// anchored at Submit, so time spent waiting in the admission queue burns
  /// budget — it bounds the client's response latency, not compute from
  /// admission (a query that waited seconds for a worker does NOT get its
  /// full budget back afterwards). The remaining budget at admission is
  /// mapped onto the search's own safety valve: effective
  /// time_limit_seconds = min(options.time_limit_seconds, remaining)
  /// (treating 0 as unlimited); on a loaded pool it also covers time the
  /// query's component tasks spend waiting behind other queries' tasks. A
  /// search stopped by the budget reports `deadline_missed = true` and is
  /// not cached; a request whose budget is already gone when a worker pops
  /// it is expired for the cost of a clock read (Aborted status, null
  /// result, `deadline_missed = true`).
  double deadline_seconds = 0.0;
  /// Skip the result cache (cold benchmarking, freshness checks).
  bool bypass_cache = false;
  /// Skip the prepared-plan cache as well: the query reduces from scratch
  /// and does not publish the plan. bypass_cache + bypass_prepared_cache
  /// is a fully cold query.
  bool bypass_prepared_cache = false;
  /// Attach an EXPLAIN plan (service/explain.h) to the response: reduction
  /// stage stats, component selection and resolved engines, the full
  /// per-component prune breakdown, and the cache decisions — the execution
  /// record the executor otherwise discards. Observational only (the search
  /// is unchanged); costs one struct copy per component at finish.
  bool explain = false;
};

/// Outcome of one request.
struct QueryResponse {
  Status status;  // non-OK: rejected (queue full / shutdown / bad request)
  std::shared_ptr<const SearchResult> result;  // null when status is non-OK
  bool cache_hit = false;
  /// Served by IncrementalRequery over a surviving cached clique plus the
  /// edges added since — exact, without a full search.
  bool incremental = false;
  /// A surviving cached clique primed SearchOptions::warm_start for a full
  /// search (attribute changes downgraded it below incremental exactness).
  bool warm_start = false;
  /// The Branch stage reused a cached PreparedGraph instead of re-running
  /// the reduction pipeline.
  bool prepared_hit = false;
  bool deadline_missed = false;  // search stopped by a safety valve
  /// Process-unique id of this query's trace (obs/trace.h), echoed on the
  /// wire so a slow response can be looked up in the slowlog by id. 0 when
  /// telemetry is disabled or the request was rejected at Submit.
  uint64_t trace_id = 0;
  int64_t queue_micros = 0;      // time spent waiting for a worker
  int64_t run_micros = 0;        // cache lookup + search time
  /// Which valve stopped the search: "" (ran to completion) | "node_limit"
  /// | "time_limit" | "deadline" — "deadline" when the request's
  /// deadline_seconds is what tightened the effective time limit (including
  /// requests that expired in the queue). Static strings, never freed.
  const char* stop_reason = "";
  /// Serialized EXPLAIN plan when the request set `explain`; empty
  /// otherwise. Pre-rendered JSON so the wire layer splices it verbatim.
  std::string plan_json;
};

/// Monotonic serving metrics. submitted = accepted + rejected;
/// served counts completed responses (cache hits included).
struct ExecutorMetrics {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t served = 0;
  uint64_t cache_hits = 0;
  uint64_t incremental_requeries = 0;  // exact re-queries from warm hints
  uint64_t warm_starts = 0;            // full searches seeded by a warm hint
  uint64_t prepared_hits = 0;          // Branch stages on a cached plan
  uint64_t prepared_builds = 0;        // plans built (and possibly published)
  uint64_t component_tasks = 0;        // component tasks scheduled pool-wide
  /// Every response answered with deadline_missed = true: searches stopped
  /// by the budget AND requests that expired before a worker ever popped
  /// them. The latter subset is broken out as `expired_in_queue` — a
  /// nonzero rate there means the admission queue itself is the problem
  /// (clients time out waiting, not computing), which deepening the worker
  /// pool fixes and a faster kernel does not.
  uint64_t deadline_misses = 0;
  uint64_t expired_in_queue = 0;
  /// Early-stopped searches broken down by which valve fired (the
  /// response's stop_reason): the request's own node/time limit vs the
  /// per-query deadline (expired-in-queue requests count under deadline).
  uint64_t stopped_node_limit = 0;
  uint64_t stopped_time_limit = 0;
  uint64_t stopped_deadline = 0;
  /// Queue depths are point-in-time. Admission alone is a misleading
  /// saturation signal — queries expand into component tasks, so a pool
  /// drowning in thousands of backed-up component tasks can show an empty
  /// admission queue — hence both queues are reported, plus their sum
  /// (`queue_depth`, the total backlog) whose high-water mark is
  /// `peak_queue_depth`.
  size_t admission_queue_depth = 0;  // whole queries waiting for a worker
  size_t component_queue_depth = 0;  // expanded Branch tasks waiting
  size_t queue_depth = 0;            // admission + component, combined
  size_t peak_queue_depth = 0;       // high-water mark of the combined depth
  /// Pool occupancy: configured worker count and how many are executing
  /// work (a query stage or a component task) right now. active == num with
  /// a nonzero queue_depth means the pool, not the kernel, is the
  /// bottleneck.
  size_t num_workers = 0;
  size_t active_workers = 0;
};

/// Bounded-queue worker pool turning the staged fair-clique search into a
/// concurrent, memoized query service. Requests flow
///
///   Submit -> [bounded queue] -> worker: result-cache probe
///                                  -> prepared-plan probe/build
///                                  -> expand into per-component tasks
///                                  -> [component queue] -> workers branch
///                                  -> last task aggregates, fills caches
///
/// Workers prefer component tasks over admitting new queries, so in-flight
/// queries finish before fresh ones start reducing. Components of one query
/// share the BranchStage's atomic incumbent-size floor, so answers are
/// identical to a sequential search.
///
/// Workers that are idle while a query reduces lend a hand with the
/// reduction's data-parallel passes: the executor is the ParallelHelpers of
/// every PrepareGraph it runs. Offer queues "assist" entries that workers
/// take before component tasks and admissions, at most one per worker idle
/// at that moment. They are not component tasks and do not count in any
/// queue depth.
///
/// The executor owns its worker threads; the result cache and prepared-plan
/// cache are optional, shared, and owned by the caller (pass nullptr to
/// serve without them). The destructor drains outstanding accepted requests
/// before joining, so every future obtained from Submit is eventually
/// satisfied.
class QueryExecutor : public ParallelHelpers {
 public:
  explicit QueryExecutor(const ExecutorOptions& options,
                         ResultCache* cache = nullptr,
                         PreparedGraphCache* prepared_cache = nullptr);
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Enqueues a request. The returned future is always valid; when the
  /// queue is full or the executor is shutting down it is already satisfied
  /// with an Aborted status instead of blocking the caller.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Runs a request synchronously on the calling thread, through the same
  /// cache path and Branch stage as queued requests (used by sequential
  /// baselines in benchmarks); the component tasks run in order on the
  /// caller instead of the shared component queue.
  QueryResponse Run(const QueryRequest& request);

  /// Blocks until every accepted request has been served.
  void Drain();

  /// Stops accepting new requests, serves the remaining queue (including
  /// outstanding component tasks), joins the workers. Idempotent; called by
  /// the destructor.
  void Shutdown();

  ExecutorMetrics metrics() const;

  /// ParallelHelpers: queues min(max_helpers, idle workers not yet handed
  /// an assist) entries for `job`. A no-op once shutdown has begun.
  void Offer(const std::shared_ptr<ParallelJob>& job,
             size_t max_helpers) override;

 private:
  /// Everything one query carries from admission to response. Shared by the
  /// component tasks fanned out for it; the last task to finish aggregates
  /// and fulfills the promise.
  struct QueryState;

  /// One schedulable unit: task `slot` of `query`'s BranchStage.
  struct ComponentTask {
    std::shared_ptr<QueryState> query;
    size_t slot = 0;
  };

  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    WallTimer queued;
  };

  void WorkerLoop();
  /// Shared pre-Branch pipeline: submit-anchored deadline check,
  /// validation, result-cache probe, warm-hint handling, deadline mapping,
  /// prepared-plan probe/build. Returns true when the response is already
  /// complete (expired / hit / incremental / invalid).
  bool PreSearch(QueryState& qs);
  /// Records the run histogram and, when the query is slow enough for the
  /// slowlog, assembles its span timeline from the stage timestamps
  /// PreSearch/Expand/Finalize captured. Called once per query right before
  /// the response leaves the executor.
  void RecordTelemetry(QueryState& qs);
  /// Shared post-Branch glue: deadline-miss bookkeeping, hint put-back,
  /// result-cache fill, response fields. Does not touch the promise.
  void FinishSearch(QueryState& qs, SearchResult&& result);
  /// Assembles and serializes the EXPLAIN plan onto the response when the
  /// request asked for one. `sr` is null on paths that never searched
  /// (cache hit, expired in queue, invalid request) — the plan then records
  /// only the cache decision.
  void BuildExplain(QueryState& qs, const SearchResult* sr);
  /// Bumps the stopped_* counter matching an early-stopped search's reason.
  void CountStop(const QueryState& qs, const SearchStats& stats);
  /// Builds the query's BranchStage (seed + component selection), registers
  /// live progress and journals the start. Returns the task count.
  size_t StartBranch(QueryState& qs);
  /// Runs one stage task with its trace stamp and journal events; true for
  /// the call that finished the stage's last task.
  bool RunBranchTask(QueryState& qs, size_t task);
  /// Aggregates the finished stage and hands the result to FinishSearch.
  void FinishBranch(QueryState& qs);
  /// Worker path: StartBranch, then fan the tasks out onto the component
  /// queue (or finalize immediately when nothing survives selection).
  void ExpandQuery(std::shared_ptr<QueryState> qs);
  /// FinishBranch + CompleteQuery, run by whoever finished the last task.
  void FinalizeQuery(QueryState& qs);
  /// The finish steps of every answered query, on the pool and Run paths
  /// alike: a cache-decision-only EXPLAIN plan when none was built, the
  /// served count, the queue wait (pool path only; Run never queues), the
  /// trace, and a kQueryFinish journal event naming the graph — except for
  /// result-cache hits, which are not journaled.
  void FinishQuery(QueryState& qs);
  /// FinishQuery, then sets the promise and settles the in-flight
  /// accounting.
  void CompleteQuery(QueryState& qs);

  const ExecutorOptions options_;
  ResultCache* const cache_;                   // not owned; may be null
  PreparedGraphCache* const prepared_cache_;   // not owned; may be null

  // ------------------------------------------------------ lock ordering
  //
  // Proven acquisition order across the executor and everything a query
  // touches while a worker holds one of these locks (checked by the clang
  // -Wthread-safety CI job via the ACQUIRED_AFTER annotations below, and at
  // runtime by the TSan job's deadlock detector):
  //
  //   level 0 (outermost)  shutdown_mu_        Shutdown serialization
  //   level 1              mu_                 queues + in-flight accounting
  //   leaves (never held together with mu_ or shutdown_mu_ by this class;
  //   workers take them only while NOT holding mu_):
  //     ResultCache::mu_, PreparedGraphCache::mu_,
  //     GraphRegistry::{swap_mu_, mu_}, StorageManager::{map_mu_, stripe
  //     mu, manifest_mu_}, obs::* registries, ParallelJob::mu_ (Offer
  //     queues a job under mu_ without touching the job's own lock)
  //
  // Workers pop work under mu_, then RELEASE it before running the query
  // pipeline, so no cache/registry/storage lock is ever acquired under
  // mu_ — the only nesting in this file is shutdown_mu_ -> mu_.

  /// Guards the two work queues and the in-flight accounting. Acquired
  /// after shutdown_mu_ (Shutdown posts the stop flag under both), never
  /// before it.
  mutable fc::Mutex mu_ ACQUIRED_AFTER(shutdown_mu_);
  fc::CondVar work_ready_;
  fc::CondVar idle_;
  std::deque<Pending> queue_ GUARDED_BY(mu_);
  std::deque<ComponentTask> component_queue_ GUARDED_BY(mu_);
  /// ParallelFor jobs offered to idle workers; taken before everything else.
  std::deque<std::shared_ptr<ParallelJob>> assist_queue_ GUARDED_BY(mu_);
  /// Workers blocked on work_ready_ right now.
  size_t idle_workers_ GUARDED_BY(mu_) = 0;
  /// Accepted queries not yet answered (queued, expanding, or branching).
  size_t inflight_ GUARDED_BY(mu_) = 0;
  /// High-water mark of queue_.size() + component_queue_.size(); bumped
  /// under mu_ wherever either queue grows.
  size_t peak_queue_depth_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Serializes Shutdown end to end; workers_ is written under this mutex,
  /// including at construction.
  fc::Mutex shutdown_mu_;
  std::vector<std::thread> workers_ GUARDED_BY(shutdown_mu_);

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> incremental_requeries_{0};
  std::atomic<uint64_t> warm_starts_{0};
  std::atomic<uint64_t> prepared_hits_{0};
  std::atomic<uint64_t> prepared_builds_{0};
  std::atomic<uint64_t> component_tasks_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> stopped_node_limit_{0};
  std::atomic<uint64_t> stopped_time_limit_{0};
  std::atomic<uint64_t> stopped_deadline_{0};
  /// Workers currently executing work (vs blocked on work_ready_).
  std::atomic<size_t> active_workers_{0};

  /// Process-wide latency histograms (obs/metrics.h), resolved once at
  /// construction so the hot path records through raw pointers.
  obs::Histogram* const queue_wait_hist_;
  obs::Histogram* const run_hist_;
  obs::Histogram* const prepare_hist_;
  obs::Histogram* const branch_hist_;
};

}  // namespace fairclique

#endif  // FAIRCLIQUE_SERVICE_QUERY_EXECUTOR_H_
