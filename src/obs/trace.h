#ifndef FAIRCLIQUE_OBS_TRACE_H_
#define FAIRCLIQUE_OBS_TRACE_H_

/// Per-query trace spans and the slowlog.
///
/// Every request served by the QueryExecutor gets a process-unique trace id
/// (returned in the wire response). When the query completes, its stage
/// timeline — submit -> admission queue -> result-cache probe ->
/// prepared-plan probe/build -> per-component Branch tasks -> respond — is
/// assembled into a Trace of spans whose times are relative to Submit. Span
/// timestamps are captured on the hot path as plain integers the executor
/// mostly measures anyway; the Trace object itself is only materialized for
/// queries slow enough to enter the slowlog, so the cached-hit fast path
/// pays one atomic id fetch and one lock-free floor probe.
///
/// The slowlog is a fixed-size buffer retaining the N *slowest* completed
/// traces (not the most recent): the eviction victim is always the current
/// fastest entry, so a latency spike stays inspectable long after it
/// happened. `slowlog` / `trace <id>` on the server dump these as JSON.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace fairclique {
namespace obs {

/// One stage of a query's execution. `parent` indexes into Trace::spans
/// (-1 = top level). Top-level spans tile the query's run contiguously, so
/// their durations sum to the response's run_micros (plus the queue span,
/// which precedes the run); child spans (per-component Branch tasks) overlap
/// in wall time when components run on several workers.
struct TraceSpan {
  const char* name = "";  // static string; never freed
  int32_t parent = -1;
  int64_t start_micros = 0;  // relative to Submit
  int64_t duration_micros = 0;
};

/// A completed query's timeline plus the serving flags that explain it.
struct Trace {
  uint64_t id = 0;
  std::string graph;    // registered graph name
  std::string options;  // canonical options key (core/options_key.h)
  int64_t queue_micros = 0;
  int64_t run_micros = 0;
  int64_t total_micros = 0;  // submit -> respond
  bool ok = true;
  bool cache_hit = false;
  bool prepared_hit = false;
  bool incremental = false;
  bool warm_start = false;
  bool deadline_missed = false;
  /// Why the search stopped early: "" | "node_limit" | "time_limit" |
  /// "deadline" (static strings; "deadline" when the request deadline is
  /// what tightened the effective time limit).
  const char* stop_reason = "";
  /// Pre-serialized EXPLAIN plan (QueryResponse::plan_json, written by
  /// QueryExecutor::BuildExplain) when the request asked for one; empty
  /// otherwise. Stored serialized so the trace layer stays
  /// independent of the plan schema.
  std::string explain_json;
  std::vector<TraceSpan> spans;
};

/// Process-unique trace ids starting at 1, strictly increasing within each
/// thread (ids are handed out in thread-local blocks to keep the shared
/// counter off the per-query hot path, so interleaving across threads does
/// not follow global submission order).
uint64_t NextTraceId();

/// Bounded buffer of the N slowest completed traces, ordered internally as
/// a min-heap on run_micros so admission and eviction are O(log N) under
/// one mutex. `Admits` is the lock-free fast-path probe: once the buffer is
/// full, queries faster than the current floor skip the lock (and the Trace
/// allocation) entirely.
class Slowlog {
 public:
  explicit Slowlog(size_t capacity = kDefaultCapacity);

  static constexpr size_t kDefaultCapacity = 32;

  /// The process-wide slowlog fed by every QueryExecutor.
  static Slowlog& Default();

  /// Would a trace with this run time enter the log right now? Cheap
  /// (one relaxed load) and racy by design: a false positive costs one
  /// Trace allocation that Record then discards, a false negative can only
  /// happen when a concurrent admission raised the floor past this value —
  /// in which case the log holds N traces at least this slow already.
  bool Admits(int64_t run_micros) const {
    return run_micros > floor_micros_.load(std::memory_order_relaxed);
  }

  void Record(std::shared_ptr<const Trace> trace);

  /// The retained traces, slowest first, at most `limit` (0 = all).
  std::vector<std::shared_ptr<const Trace>> Slowest(size_t limit = 0) const;

  /// The retained trace with this id, or nullptr (evicted or never slow
  /// enough to be retained).
  std::shared_ptr<const Trace> Find(uint64_t id) const;

  /// Drops every entry; with `capacity` > 0 also resizes the buffer (the
  /// server's --slowlog flag re-caps the default instance at startup).
  void Reset(size_t capacity = 0);

  size_t size() const;
  size_t capacity() const;

 private:
  void UpdateFloorLocked() REQUIRES(mu_);

  mutable fc::Mutex mu_;
  size_t capacity_ GUARDED_BY(mu_);
  /// Min-heap on run_micros: heap_[0] is the fastest retained trace, i.e.
  /// the eviction victim.
  std::vector<std::shared_ptr<const Trace>> heap_ GUARDED_BY(mu_);
  /// run_micros of heap_[0] when full, -1 while below capacity.
  std::atomic<int64_t> floor_micros_{-1};
};

}  // namespace obs
}  // namespace fairclique

#endif  // FAIRCLIQUE_OBS_TRACE_H_
