#ifndef FAIRCLIQUE_SERVICE_PREPARED_GRAPH_CACHE_H_
#define FAIRCLIQUE_SERVICE_PREPARED_GRAPH_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/thread_annotations.h"
#include "core/prepared_graph.h"
#include "dynamic/dynamic_graph.h"

namespace fairclique {

/// Counters exposed by PreparedGraphCache::Stats(). `entries`/`capacity`
/// are point-in-time; the rest are monotonic since construction/Clear().
struct PreparedGraphCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t invalidated = 0;  // dropped by eviction of their graph / migration
  uint64_t forwarded = 0;    // re-keyed to a new epoch's fingerprint
  size_t entries = 0;
  size_t capacity = 0;
};

/// How a snapshot replace migrated the prepared plans of the old epoch.
struct PreparedMigrationOutcome {
  size_t invalidated = 0;
  size_t forwarded = 0;
};

/// Thread-safe LRU cache of PreparedGraph artifacts, keyed by
/// (graph content fingerprint, k, reduction options) — exactly the inputs
/// of PrepareGraph, which are independent of delta, bounds, engine,
/// heuristic, and thread count. The k in the key is the plan's own, which
/// may exceed the request's: the QueryExecutor probes the request's k, and
/// on a miss seeds and probes or builds the plan at the lifted k of
/// SeedAndLift (so such a query counts two lookups here). A delta- or
/// bound-sweep over one graph therefore pays the reduction + decomposition
/// cost once per distinct plan k, and every later query goes straight to
/// the Branch stage.
///
/// Values are shared_ptr<const PreparedGraph>: a hit is one refcount bump,
/// and a plan evicted while queries still branch over it stays valid. A
/// capacity of 0 disables caching (Get always misses, Put is a no-op).
///
/// Epoch migration (OnSnapshotReplace): a prepared plan bakes in the exact
/// content it was reduced from, so almost any update invalidates it. The
/// one provable exception is forwarded instead: a batch that net-added no
/// edges and flipped no attributes (removals and/or appended isolated
/// vertices only) whose touched vertices all lie *outside* the plan's
/// reduced vertex set. Then the reduced subgraph is bit-identical on the
/// new snapshot (none of its vertices or edges changed), it still contains
/// every fair clique of the new graph (removal-only shrinks the clique
/// set; appended isolated vertices cannot join a fair clique), and the
/// plan is re-keyed to the new fingerprint unchanged.
class PreparedGraphCache {
 public:
  explicit PreparedGraphCache(size_t capacity = 16);

  /// Canonical key: FingerprintHex(fingerprint) + "|k=<k>|red=<c><s><e>".
  static std::string MakeKey(uint64_t fingerprint, int k,
                             const ReductionOptions& reductions);

  /// Returns the cached plan and refreshes its recency, or nullptr.
  std::shared_ptr<const PreparedGraph> Get(const std::string& key);

  /// Single-flight probe-or-build: returns the cached plan for `key`, or
  /// runs `build` exactly once per concurrent miss wave — other callers of
  /// the same key block until the builder publishes, then share its plan.
  /// Without this, N workers admitting N identical cold queries would each
  /// run the full reduction pipeline, defeating "reduce once" exactly in
  /// the concurrent setting the service targets. `*built` reports whether
  /// THIS call ran the builder (for metrics). At capacity 0 every call
  /// builds (caching is disabled, so there is nothing to share).
  ///
  /// Deliberate trade-off: a waiter parks its thread for the duration of
  /// the in-flight build (an executor worker waiting here serves nothing
  /// else meanwhile). The window equals one reduction and only opens for
  /// identical concurrent cold queries; re-queuing the caller as a
  /// continuation would keep the pool draining but needs a deferred-query
  /// mechanism the executor does not have yet.
  std::shared_ptr<const PreparedGraph> GetOrPrepare(
      const std::string& key, uint64_t fingerprint,
      const std::function<std::shared_ptr<const PreparedGraph>()>& build,
      bool* built);

  /// Inserts (or refreshes) `prepared` under `key`, evicting the least
  /// recently used entry when full. `fingerprint` must be the graph
  /// fingerprint the key was built from (it drives invalidation).
  void Put(const std::string& key,
           std::shared_ptr<const PreparedGraph> prepared,
           uint64_t fingerprint);

  /// Drops every plan keyed to `fingerprint`; returns the number dropped.
  size_t InvalidateFingerprint(uint64_t fingerprint);

  /// Migrates plans keyed to `old_fp` after the graph advanced to the
  /// epoch with fingerprint `new_fp` via the batch described by `summary`
  /// (see the class comment for the forward rule). `keep_old_entries`
  /// preserves the old-fingerprint plans (another registered name still
  /// serves that content); forwarded plans are *copied* to the new key in
  /// that case.
  PreparedMigrationOutcome OnSnapshotReplace(uint64_t old_fp, uint64_t new_fp,
                                             const UpdateSummary& summary,
                                             bool keep_old_entries = false);

  /// Drops every entry and resets the counters.
  void Clear();

  PreparedGraphCacheStats Stats() const;

 private:
  struct CacheEntry {
    std::shared_ptr<const PreparedGraph> prepared;
    uint64_t fingerprint = 0;
  };
  using LruList = std::list<std::pair<std::string, CacheEntry>>;

  void PutLocked(const std::string& key, CacheEntry entry) REQUIRES(mu_);

  const size_t capacity_;
  mutable fc::Mutex mu_;
  fc::CondVar build_done_;
  /// Keys with a GetOrPrepare builder in flight; waiters block on
  /// build_done_ until their key leaves this set.
  std::unordered_set<std::string> building_ GUARDED_BY(mu_);
  LruList lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t insertions_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t invalidated_ GUARDED_BY(mu_) = 0;
  uint64_t forwarded_ GUARDED_BY(mu_) = 0;
};

}  // namespace fairclique

#endif  // FAIRCLIQUE_SERVICE_PREPARED_GRAPH_CACHE_H_
