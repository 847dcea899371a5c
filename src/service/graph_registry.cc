#include "service/graph_registry.h"

#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/verifier.h"
#include "obs/crash_handler.h"
#include "obs/event_journal.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "storage/fcg2.h"

namespace fairclique {

namespace {

/// Resolves kAuto by sniffing the first bytes: the FCG2 magic picks the
/// binary container, a leading '%' (METIS's conventional comment and
/// the only format here that uses it as the *first* byte by convention)
/// picks METIS, everything else is a text edge list. IO failures fall
/// through to the edge-list loader, which reports them with a proper
/// status.
GraphFormat SniffFormat(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, 4);
  if (in.gcount() == 4 &&
      std::memcmp(magic, storage::kFcg2Magic, sizeof(magic)) == 0) {
    return GraphFormat::kBinaryV2;
  }
  if (in.gcount() >= 1 && magic[0] == '%') return GraphFormat::kMetis;
  return GraphFormat::kEdgeList;
}

}  // namespace

void GraphRegistry::AttachCache(ResultCache* cache) {
  fc::MutexLock lock(mu_);
  cache_ = cache;
}

void GraphRegistry::AttachPreparedCache(PreparedGraphCache* cache) {
  fc::MutexLock lock(mu_);
  prepared_cache_ = cache;
}

void GraphRegistry::AttachStorage(storage::StorageManager* storage) {
  fc::MutexLock lock(mu_);
  storage_ = storage;
}

bool GraphRegistry::FingerprintReferencedLocked(
    uint64_t fingerprint, const std::string& except) const {
  for (const auto& [name, entry] : graphs_) {
    if (name != except && entry->fingerprint == fingerprint) return true;
  }
  return false;
}

Status GraphRegistry::Load(const std::string& name, const std::string& path,
                           const std::string& attribute_path,
                           GraphFormat format) {
  {
    fc::MutexLock lock(mu_);
    if (graphs_.count(name) > 0) {
      return Status::InvalidArgument("graph '" + name +
                                     "' is already registered; evict first");
    }
  }
  if (format == GraphFormat::kAuto) format = SniffFormat(path);

  AttributedGraph g;
  if (format == GraphFormat::kBinaryV2) {
    if (!attribute_path.empty()) {
      return Status::InvalidArgument(
          "binary graphs carry attributes inline; no attribute file expected");
    }
    FAIRCLIQUE_RETURN_NOT_OK(storage::LoadFcg2(path, &g));
  } else if (format == GraphFormat::kMetis) {
    FAIRCLIQUE_RETURN_NOT_OK(LoadMetisGraph(path, &g));
    if (!attribute_path.empty()) {
      std::vector<Attribute> attrs;
      FAIRCLIQUE_RETURN_NOT_OK(
          LoadAttributes(attribute_path, g.num_vertices(), &attrs));
      g = BuildGraph(g.num_vertices(), g.edges(), attrs);
    }
  } else {
    FAIRCLIQUE_RETURN_NOT_OK(
        LoadAttributedGraph(path, attribute_path, EdgeListOptions{}, &g));
  }
  return Add(name, std::move(g), path);
}

Status GraphRegistry::Add(const std::string& name, AttributedGraph graph,
                          const std::string& source) {
  return AddEntry(name,
                  std::make_shared<const AttributedGraph>(std::move(graph)),
                  /*version=*/0, source, /*persist=*/true);
}

Status GraphRegistry::Restore(const std::string& name,
                              std::shared_ptr<const AttributedGraph> graph,
                              uint64_t version, const std::string& source) {
  if (graph == nullptr) {
    return Status::InvalidArgument("Restore: graph must not be null");
  }
  return AddEntry(name, std::move(graph), version, source, /*persist=*/false);
}

Status GraphRegistry::AddEntry(const std::string& name,
                               std::shared_ptr<const AttributedGraph> graph,
                               uint64_t version, const std::string& source,
                               bool persist) {
  auto entry = std::make_shared<RegisteredGraph>();
  entry->name = name;
  entry->fingerprint = GraphFingerprint(*graph);
  entry->graph = std::move(graph);
  entry->version = version;
  entry->source = source;

  // swap_mu_ serializes the (insert, persist) pair with Replace/Evict so
  // the write-through cannot interleave with a concurrent mutation of the
  // same name; reads only ever take mu_.
  fc::MutexLock swap_lock(swap_mu_);
  storage::StorageManager* storage = nullptr;
  {
    fc::MutexLock lock(mu_);
    auto [it, inserted] = graphs_.emplace(name, entry);
    (void)it;
    if (!inserted) {
      return Status::InvalidArgument("graph '" + name +
                                     "' is already registered; evict first");
    }
    if (persist) storage = storage_;
  }
  if (storage != nullptr) {
    Status status = storage->PersistGraph(name, *entry->graph, version,
                                          entry->fingerprint, source);
    if (!status.ok()) {
      // Durability is part of the registration contract once storage is
      // attached: an unpersistable graph is not registered at all.
      fc::MutexLock lock(mu_);
      graphs_.erase(name);
      return status;
    }
  }
  (persist ? loads_ : restores_).fetch_add(1, std::memory_order_relaxed);
  obs::EventJournal::Default().Record(
      obs::EventType::kGraphLoad, version, entry->graph->num_vertices(),
      entry->graph->num_edges(), name.c_str());
  obs::NoteGraphEpoch(name, version, entry->fingerprint);
  return Status::OK();
}

std::shared_ptr<const RegisteredGraph> GraphRegistry::Get(
    const std::string& name) const {
  fc::MutexLock lock(mu_);
  auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second;
}

Status GraphRegistry::Replace(const std::string& name,
                              std::shared_ptr<const AttributedGraph> snapshot,
                              uint64_t version, const UpdateSummary* summary,
                              ReplaceReport* report) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("Replace: snapshot must not be null");
  }
  // Fingerprint the snapshot we were actually given rather than trusting
  // summary->fingerprint: if a racing Apply advanced the DynamicGraph
  // between the caller's Apply and this Replace, snapshot and summary
  // describe different epochs, and registering the summary's fingerprint
  // would key cache entries to the wrong content.
  const uint64_t new_fp = GraphFingerprint(*snapshot);
  auto entry = std::make_shared<RegisteredGraph>();
  entry->name = name;
  entry->fingerprint = new_fp;
  entry->graph = snapshot;
  entry->version = version;

  uint64_t old_fp = 0;
  bool old_referenced = false;
  ResultCache* cache = nullptr;
  PreparedGraphCache* prepared_cache = nullptr;
  storage::StorageManager* storage = nullptr;
  fc::MutexLock swap_lock(swap_mu_);
  {
    fc::MutexLock lock(mu_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("graph '" + name + "' is not registered");
    }
    if (version <= it->second->version) {
      return Status::InvalidArgument(
          "Replace: version " + std::to_string(version) +
          " does not advance past " + std::to_string(it->second->version));
    }
    entry->source = it->second->source;
    old_fp = it->second->fingerprint;
    it->second = std::move(entry);
    old_referenced = FingerprintReferencedLocked(old_fp, name);
    cache = cache_;
    prepared_cache = prepared_cache_;
    storage = storage_;
  }

  replaces_.fetch_add(1, std::memory_order_relaxed);
  obs::EventJournal::Default().Record(
      obs::EventType::kEpochReplace, version,
      summary != nullptr ? summary->added_edges.size() : 0, new_fp,
      name.c_str());
  obs::NoteGraphEpoch(name, version, new_fp);
  ReplaceReport out;
  out.old_fingerprint = old_fp;
  out.new_fingerprint = new_fp;
  out.version = version;
  // Only migrate with a summary that describes exactly this transition:
  // old registered content -> this snapshot. Anything else (several
  // Apply batches collapsed into one Replace, a summary from a racing
  // later epoch) would republish stale results as exact, so fall back to
  // plain invalidation.
  const bool summary_matches = summary != nullptr &&
                               summary->base_fingerprint == old_fp &&
                               summary->fingerprint == new_fp;
  if (cache != nullptr && old_fp != new_fp) {
    if (summary_matches) {
      out.cache = cache->OnSnapshotReplace(old_fp, new_fp, *snapshot, *summary,
                                           /*keep_old_entries=*/old_referenced);
    } else if (!old_referenced) {
      out.cache.invalidated = cache->InvalidateFingerprint(old_fp);
    }
  }
  if (prepared_cache != nullptr && old_fp != new_fp) {
    if (summary_matches) {
      out.prepared = prepared_cache->OnSnapshotReplace(
          old_fp, new_fp, *summary, /*keep_old_entries=*/old_referenced);
    } else if (!old_referenced) {
      out.prepared.invalidated = prepared_cache->InvalidateFingerprint(old_fp);
    }
  }
  if (report != nullptr) *report = std::move(out);
  // The storage write-through runs OUTSIDE swap_mu_: a snapshot rewrite or
  // compaction of one graph must not stall every other graph's Replace
  // behind the global publish lock. Two Replaces of the same name can then
  // reach storage out of order, but StorageManager::OnReplace ignores
  // epochs older than one it already handled, so the durable snapshot
  // never regresses.
  swap_lock.Unlock();
  if (storage != nullptr) {
    // The in-memory replace is already published (readers may be serving
    // it); a write-through failure is reported rather than rolled back, so
    // the caller can retry persistence without re-applying the update.
    FAIRCLIQUE_RETURN_NOT_OK(
        storage->OnReplace(name, *snapshot, version, new_fp));
  }
  return Status::OK();
}

bool GraphRegistry::Evict(const std::string& name) {
  uint64_t fingerprint = 0;
  ResultCache* cache = nullptr;
  PreparedGraphCache* prepared_cache = nullptr;
  storage::StorageManager* storage = nullptr;
  fc::MutexLock swap_lock(swap_mu_);
  {
    fc::MutexLock lock(mu_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) return false;
    fingerprint = it->second->fingerprint;
    graphs_.erase(it);
    if (!FingerprintReferencedLocked(fingerprint, name)) {
      cache = cache_;
      prepared_cache = prepared_cache_;
    }
    storage = storage_;
  }
  // Outside mu_: the caches have their own locks, and dropping the orphaned
  // entries is not required to be atomic with the map erase.
  if (cache != nullptr) cache->InvalidateFingerprint(fingerprint);
  if (prepared_cache != nullptr) {
    prepared_cache->InvalidateFingerprint(fingerprint);
  }
  if (storage != nullptr) {
    Status status = storage->Forget(name);
    if (!status.ok()) {
      // The in-memory evict already happened; stale durable files only cost
      // disk until the next successful Forget/Open, so log and move on.
      FC_LOG(kWarning) << "Evict('" << name
                       << "'): storage forget failed: " << status.ToString();
    }
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  obs::EventJournal::Default().Record(obs::EventType::kGraphEvict, 0, 0, 0,
                                      name.c_str());
  obs::ForgetGraphEpoch(name);
  return true;
}

std::vector<std::shared_ptr<const RegisteredGraph>> GraphRegistry::List()
    const {
  fc::MutexLock lock(mu_);
  std::vector<std::shared_ptr<const RegisteredGraph>> out;
  out.reserve(graphs_.size());
  for (const auto& [name, entry] : graphs_) out.push_back(entry);
  return out;
}

size_t GraphRegistry::size() const {
  fc::MutexLock lock(mu_);
  return graphs_.size();
}

RegistryStats GraphRegistry::Stats() const {
  RegistryStats s;
  s.loads = loads_.load(std::memory_order_relaxed);
  s.restores = restores_.load(std::memory_order_relaxed);
  s.replaces = replaces_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  fc::MutexLock lock(mu_);
  s.graphs = graphs_.size();
  return s;
}

WarmRestoreOutcome RestoreWarmEntries(
    const GraphRegistry& registry, ResultCache* cache,
    std::vector<storage::WarmEntry> entries) {
  WarmRestoreOutcome outcome;
  std::map<uint64_t, std::shared_ptr<const AttributedGraph>> by_fingerprint;
  for (const auto& entry : registry.List()) {
    by_fingerprint.emplace(entry->fingerprint, entry->graph);
  }
  // The export lists entries most-recently-used first; Put in reverse so
  // the pre-crash MRU entry is also the restored cache's MRU — otherwise a
  // smaller post-restart cache would evict exactly the hottest entries.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    storage::WarmEntry& w = *it;
    auto found = by_fingerprint.find(w.fingerprint);
    if (found == by_fingerprint.end() || !w.has_params ||
        !VerifyFairClique(*found->second, w.clique.vertices, w.params).ok()) {
      outcome.rejected++;
      continue;
    }
    auto result = std::make_shared<SearchResult>();
    result->clique = std::move(w.clique);
    result->stats.completed = true;
    cache->Put(w.key, std::move(result), w.params);
    outcome.restored++;
  }
  return outcome;
}

}  // namespace fairclique
