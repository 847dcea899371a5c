#ifndef FAIRCLIQUE_SERVICE_RESULT_CACHE_H_
#define FAIRCLIQUE_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/max_fair_clique.h"
#include "dynamic/dynamic_graph.h"
#include "storage/warm_file.h"

namespace fairclique {

/// Counters exposed by ResultCache::Stats(). `entries`, `hint_entries` and
/// `capacity` are point-in-time sizes; the rest are monotonic since
/// construction/Clear().
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t invalidated = 0;      // entries/hints dropped by invalidation
  uint64_t republished = 0;      // exact entries carried to a new fingerprint
  uint64_t hints_published = 0;  // warm hints created by snapshot migration
  uint64_t hint_hits = 0;        // TakeHint successes
  size_t entries = 0;
  size_t hint_entries = 0;
  size_t capacity = 0;
};

/// A cached clique that survived a graph update but is no longer known to be
/// maximum: the next query for its key uses it instead of starting cold.
///
///  - `exact_chain` true means every epoch since `clique` was an exact
///    answer only added the edges in `new_edges` (plus removals/isolated
///    vertices that provably cannot create a larger clique), so
///    IncrementalRequery(snapshot, new_edges, clique, options) is exact.
///    With `new_edges` empty the clique is still exact outright.
///  - `exact_chain` false (an attribute changed somewhere) downgrades the
///    clique to a warm lower bound for SearchOptions::warm_start.
struct WarmHint {
  CliqueResult clique;
  FairnessParams params;
  std::vector<Edge> new_edges;
  bool exact_chain = false;
};

/// Counts returned by OnSnapshotReplace / InvalidateFingerprint.
struct MigrationOutcome {
  size_t invalidated = 0;   // dropped outright
  size_t republished = 0;   // carried over as exact entries
  size_t hints = 0;         // carried over as warm hints
};

/// Thread-safe LRU cache of completed search results, keyed by
/// (graph content fingerprint, canonical options key) — see MakeKey. Values
/// are shared_ptr<const SearchResult>, so a hit costs one refcount bump and
/// entries evicted while a client still holds the pointer stay valid.
///
/// Entries remember the query's FairnessParams so that, when a graph
/// advances to a new epoch (OnSnapshotReplace), each cached clique can be
/// revalidated against the new snapshot and either invalidated, republished
/// as still-exact, or downgraded to a WarmHint for the new fingerprint.
///
/// A capacity of 0 disables caching: Get always misses and Put is a no-op
/// (misses are still counted, so stats stay meaningful).
class ResultCache {
 public:
  explicit ResultCache(size_t capacity = 128);

  /// The canonical cache key: FingerprintHex(fingerprint) + "|" +
  /// CanonicalOptionsKey(options). Options fields that cannot change the
  /// answer (engine, warm_start) are canonicalized away, so e.g. a vector
  /// and a bitset query for the same (k, delta, bounds) share one entry.
  static std::string MakeKey(uint64_t fingerprint,
                             const SearchOptions& options);

  /// Returns the cached result and refreshes its recency, or nullptr.
  std::shared_ptr<const SearchResult> Get(const std::string& key);

  /// Inserts (or refreshes) `result` under `key`, evicting the least
  /// recently used entry when full. Callers should only Put results whose
  /// search ran to completion; truncated results would poison repeat
  /// queries with stale limits. `params` must be the query's fairness
  /// parameters — snapshot migration revalidates the clique under them.
  /// Entries stored without params (nullopt) are served normally but
  /// invalidated outright on the first snapshot change, since no migration
  /// rule can be proven without knowing (k, delta).
  void Put(const std::string& key, std::shared_ptr<const SearchResult> result,
           std::optional<FairnessParams> params = std::nullopt);

  /// Removes and returns the warm hint for `key`, if any. Hints are
  /// one-shot: the consumer is expected to complete the re-query and Put
  /// the fresh exact result back under the same key — or PutHint the hint
  /// back if the re-query could not complete (deadline), so the exact
  /// chain is not lost to one impatient query.
  std::optional<WarmHint> TakeHint(const std::string& key);

  /// (Re-)publishes a warm hint for `key`. No-op at capacity 0 or when an
  /// exact entry already holds the key. Known limitation: a put-back that
  /// races a concurrent Replace/Evict can land under a just-invalidated
  /// fingerprint; the stray hint is never served incorrectly (keys are
  /// content-addressed) and ages out of the FIFO-bounded hint store.
  void PutHint(const std::string& key, WarmHint hint);

  /// Drops every exact entry and warm hint keyed to `fingerprint` (a graph
  /// no longer registered under any name). Returns the number dropped.
  size_t InvalidateFingerprint(uint64_t fingerprint);

  /// Migrates everything keyed to `old_fp` after the graph advanced to the
  /// epoch `snapshot` (fingerprint `new_fp`) via the batch described by
  /// `summary`. Per entry/hint with clique Q and params p:
  ///
  ///  - a net-removed edge endpoint or attribute flip inside Q, or a failed
  ///    re-verification against `snapshot`, invalidates it;
  ///  - an attribute flip elsewhere downgrades it to a warm hint (a larger
  ///    fair clique may now exist anywhere, but Q is still a lower bound);
  ///  - otherwise Q's exactness argument is delta-shaped: any better clique
  ///    must contain a net-added edge. With no added edges outstanding the
  ///    entry is republished as exact; when the summary's affected-region
  ///    cap (min(max_affected_total, 2*max_affected_min + p.delta)) cannot
  ///    beat |Q| it is also republished as exact; otherwise it becomes an
  ///    exact_chain hint carrying the accumulated added edges.
  ///
  /// `keep_old_entries` preserves the old-fingerprint entries (another
  /// registered name still serves that content); otherwise they are removed.
  ///
  /// Runs under the cache mutex; per entry the work is one verifier call
  /// (O(|Q|^2 log d)) plus per-edge lookups, bounded by the cache capacity,
  /// so queries stall for well under a millisecond per epoch at default
  /// sizes. Queries in flight across the swap may still Put results under
  /// the old fingerprint afterwards; such stragglers are content-addressed
  /// (never wrong), occupy at most one LRU slot each, and age out.
  MigrationOutcome OnSnapshotReplace(uint64_t old_fp, uint64_t new_fp,
                                     const AttributedGraph& snapshot,
                                     const UpdateSummary& summary,
                                     bool keep_old_entries = false);

  /// Drops every entry and hint and resets the counters.
  void Clear();

  /// Snapshot of the persistable exact entries for the warm file
  /// (storage/warm_file.h), most recently used first: completed results
  /// with a non-empty clique and known fairness params — exactly the
  /// entries a restart can re-prove with the verifier. Hints are not
  /// exported (they are lower bounds, not answers).
  std::vector<storage::WarmEntry> ExportWarmEntries() const;

  ResultCacheStats Stats() const;

 private:
  struct CacheEntry {
    std::shared_ptr<const SearchResult> result;
    std::optional<FairnessParams> params;  // nullopt: not migratable
  };
  using LruList = std::list<std::pair<std::string, CacheEntry>>;

  void PutLocked(const std::string& key, CacheEntry entry) REQUIRES(mu_);
  void PutHintLocked(const std::string& key, WarmHint hint) REQUIRES(mu_);
  /// Applies the migration rules to one clique; returns true when it
  /// survives (as an exact entry or hint under `new_key`).
  bool MigrateCliqueLocked(const std::string& new_key, const CliqueResult& q,
                           const FairnessParams& params,
                           std::vector<Edge> prior_edges, bool prior_exact,
                           std::shared_ptr<const SearchResult> exact_result,
                           const AttributedGraph& snapshot,
                           const UpdateSummary& summary,
                           MigrationOutcome* outcome) REQUIRES(mu_);

  const size_t capacity_;
  mutable fc::Mutex mu_;
  LruList lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_ GUARDED_BY(mu_);
  std::unordered_map<std::string, WarmHint> hints_ GUARDED_BY(mu_);
  /// front = oldest, for FIFO eviction
  std::list<std::string> hint_order_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t insertions_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t invalidated_ GUARDED_BY(mu_) = 0;
  uint64_t republished_ GUARDED_BY(mu_) = 0;
  uint64_t hints_published_ GUARDED_BY(mu_) = 0;
  uint64_t hint_hits_ GUARDED_BY(mu_) = 0;
};

}  // namespace fairclique

#endif  // FAIRCLIQUE_SERVICE_RESULT_CACHE_H_
