#ifndef FAIRCLIQUE_SERVICE_GRAPH_REGISTRY_H_
#define FAIRCLIQUE_SERVICE_GRAPH_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "dynamic/dynamic_graph.h"
#include "graph/graph.h"
#include "service/prepared_graph_cache.h"
#include "service/result_cache.h"
#include "storage/storage_manager.h"

namespace fairclique {

/// File format accepted by GraphRegistry::Load. kAuto sniffs the first
/// bytes: the FCG2 magic selects the binary container, a leading '%'
/// selects METIS (its conventional comment marker; SNAP-style edge lists
/// comment with '#'), anything else is an edge list. The text formats are
/// genuinely ambiguous (a METIS header "n m" parses as an edge too), so
/// the sniff is a convention, not a proof: a '%'-commented edge list needs
/// an explicit kEdgeList, and a comment-free METIS file needs an explicit
/// kMetis.
enum class GraphFormat {
  kAuto,
  kEdgeList,  // "u v" lines + optional "v attr" attribute file
  kBinaryV2,  // FCG2 mmap container (storage/fcg2.h)
  kMetis,     // METIS adjacency format (graph/io.h)
};

/// A named, immutable graph shared by every query that references it.
/// Handed out as shared_ptr<const>, so eviction from the registry never
/// invalidates a graph that in-flight queries still hold.
struct RegisteredGraph {
  std::string name;
  std::shared_ptr<const AttributedGraph> graph;
  /// Content fingerprint (graph/fingerprint.h); result-cache keys use this,
  /// not the name, so re-registering identical content under another name
  /// still hits the cache.
  uint64_t fingerprint = 0;
  /// Dynamic-graph epoch of this snapshot; 0 for freshly loaded graphs,
  /// advanced by Replace. Strictly increasing per name.
  uint64_t version = 0;
  /// Where the graph came from (file path or "<inline>").
  std::string source;
};

/// How Replace handled the attached result cache.
struct ReplaceReport {
  uint64_t old_fingerprint = 0;
  uint64_t new_fingerprint = 0;
  uint64_t version = 0;
  MigrationOutcome cache;             // zeros when no result cache attached
  PreparedMigrationOutcome prepared;  // zeros when no prepared cache attached
};

/// Monotonic counters of the registry's epoch transitions (plus the current
/// graph count); exported as fc_registry_* by the telemetry layer.
struct RegistryStats {
  uint64_t loads = 0;      // Load/Add registrations (write-through persisted)
  uint64_t restores = 0;   // graphs registered from durable recovery
  uint64_t replaces = 0;   // successful epoch advances
  uint64_t evictions = 0;  // successful Evict calls
  size_t graphs = 0;       // currently registered names (point-in-time)
};

/// Thread-safe name -> graph map for the query service: each graph is loaded
/// and normalized once, then shared (read-only) across all concurrent
/// queries. Names are unique; re-loading a live name is an error so a
/// client cannot silently swap the graph under another client's feet —
/// evict first, then load, or advance the same logical graph atomically
/// with Replace.
///
/// With AttachCache the registry keeps the result cache honest: Evict drops
/// cached results whose fingerprint no longer backs any registered name,
/// and Replace migrates them to the new epoch's fingerprint (republish /
/// warm hint / invalidate — see ResultCache::OnSnapshotReplace).
class GraphRegistry {
 public:
  /// Attaches the service's result cache (not owned; may be null to
  /// detach). Callers wire the same cache into their QueryExecutor.
  void AttachCache(ResultCache* cache);

  /// Attaches the service's prepared-plan cache (not owned; may be null to
  /// detach). Replace forwards or invalidates prepared plans per the rules
  /// in PreparedGraphCache::OnSnapshotReplace; Evict drops plans whose
  /// fingerprint no longer backs any registered name.
  void AttachPreparedCache(PreparedGraphCache* cache);

  /// Attaches the durable storage manager (not owned; may be null to
  /// detach). With storage attached the registry is write-through:
  /// Load/Add snapshot the graph (FCG2 + manifest) before returning,
  /// Replace verifies the published epoch is covered by the WAL tail
  /// (rewriting the snapshot when it is not, compacting when the tail is
  /// long), and Evict forgets the graph's durable state. Restore registers
  /// recovered graphs without re-persisting them.
  void AttachStorage(storage::StorageManager* storage);

  /// Loads a graph file and registers it under `name`. For kEdgeList an
  /// optional attribute file ("v attr" lines) may be given; FCG2 files
  /// carry their attributes inline. Fails with InvalidArgument when
  /// `name` is already registered and with the loader's status on bad input.
  Status Load(const std::string& name, const std::string& path,
              const std::string& attribute_path = "",
              GraphFormat format = GraphFormat::kAuto);

  /// Registers an in-memory graph (datasets, tests, generators).
  Status Add(const std::string& name, AttributedGraph graph,
             const std::string& source = "<inline>");

  /// Registers a graph recovered from durable storage at its persisted
  /// epoch `version`, bypassing the write-through persist (its durable
  /// state already exists — re-snapshotting it on every restart would make
  /// recovery O(data)). Same uniqueness rule as Add.
  Status Restore(const std::string& name,
                 std::shared_ptr<const AttributedGraph> graph,
                 uint64_t version, const std::string& source);

  /// Atomically advances `name` to a new epoch snapshot without the
  /// evict-then-load race: queries in flight keep the old snapshot, queries
  /// admitted after Replace see the new one. `version` must be greater than
  /// the current entry's version (NotFound when the name is absent,
  /// InvalidArgument on a non-advancing version). When a cache is attached,
  /// cached results for the old fingerprint are migrated per `summary`
  /// (null summary = plain invalidation). The snapshot is fingerprinted
  /// here rather than trusted from the summary; a summary that does not
  /// describe exactly the (current entry -> snapshot) transition — several
  /// Apply batches collapsed into one Replace, or a racing Apply advancing
  /// the DynamicGraph between the caller's Apply and Replace — falls back
  /// to plain invalidation rather than migrating incorrectly. The storage
  /// write-through runs after the publish lock is released (so one graph's
  /// snapshot rewrite cannot stall every other graph's Replace); a
  /// write-through that loses a race against Evict of the same name is
  /// dropped by a storage-side tombstone instead of resurrecting the
  /// evicted graph's durable state.
  Status Replace(const std::string& name,
                 std::shared_ptr<const AttributedGraph> snapshot,
                 uint64_t version, const UpdateSummary* summary = nullptr,
                 ReplaceReport* report = nullptr);

  /// The entry for `name`, or nullptr when absent.
  std::shared_ptr<const RegisteredGraph> Get(const std::string& name) const;

  /// Removes `name`; returns false when it was not registered. In-flight
  /// queries keep their shared_ptr; memory is reclaimed when the last
  /// reference drops. When a cache is attached and no other registered
  /// name shares the evicted graph's fingerprint, its cached results are
  /// dropped immediately instead of lingering until LRU pressure.
  bool Evict(const std::string& name);

  /// All entries, sorted by name.
  std::vector<std::shared_ptr<const RegisteredGraph>> List() const;

  size_t size() const;

  RegistryStats Stats() const;

 private:
  /// True when any registered entry (excluding `except`) has `fingerprint`.
  bool FingerprintReferencedLocked(uint64_t fingerprint,
                                   const std::string& except) const
      REQUIRES(mu_);

  /// Shared insert path of Add/Restore; persists via write-through when
  /// `persist` (and storage attached), rolling the insert back on failure.
  Status AddEntry(const std::string& name,
                  std::shared_ptr<const AttributedGraph> graph,
                  uint64_t version, const std::string& source, bool persist)
      EXCLUDES(swap_mu_, mu_);

  mutable fc::Mutex mu_;
  std::map<std::string, std::shared_ptr<const RegisteredGraph>> graphs_
      GUARDED_BY(mu_);
  std::atomic<uint64_t> loads_{0};
  std::atomic<uint64_t> restores_{0};
  std::atomic<uint64_t> replaces_{0};
  std::atomic<uint64_t> evictions_{0};
  ResultCache* cache_ GUARDED_BY(mu_) = nullptr;  // not owned; may be null
  PreparedGraphCache* prepared_cache_ GUARDED_BY(mu_) =
      nullptr;                                    // not owned; may be null
  storage::StorageManager* storage_ GUARDED_BY(mu_) =
      nullptr;                                    // not owned; may be null
  /// Serializes (map swap, cache migration) pairs end to end: without it
  /// two concurrent Replace calls could run their cache migrations in the
  /// opposite order of their map swaps, stranding entries under a stale
  /// fingerprint. Acquired before mu_ by Replace/Evict; Get/List/Add take
  /// only mu_, so reads never wait on a migration.
  fc::Mutex swap_mu_ ACQUIRED_BEFORE(mu_);
};

/// Outcome of a warm-file restore pass.
struct WarmRestoreOutcome {
  size_t restored = 0;
  size_t rejected = 0;  // unknown fingerprint, missing params, failed verify
};

/// Publishes persisted warm entries (storage/warm_file.h) into `cache`,
/// admitting only entries whose clique the verifier re-proves as a valid
/// fair clique of the registered graph with that fingerprint. The gate
/// catches staleness and corruption; it does not re-prove *maximality*
/// (that would cost the search the cache exists to avoid), so the data dir
/// is trusted state — its checksums detect accidents, they are not MACs.
/// Shared by the server startup/restore path and the benchmarks so the
/// admission rule lives in exactly one place.
WarmRestoreOutcome RestoreWarmEntries(const GraphRegistry& registry,
                                      ResultCache* cache,
                                      std::vector<storage::WarmEntry> entries);

}  // namespace fairclique

#endif  // FAIRCLIQUE_SERVICE_GRAPH_REGISTRY_H_
