// bench_storage: the durable storage subsystem (src/storage).
//
// Part 1 — load formats. The same graph saved two ways (text edge list +
// attribute file, FCG2 mmap CSR container), loaded back repeatedly (best of
// N to shed fs-cache noise):
//   - text parse tokenizes, normalizes and sorts everything;
//   - FCG2 is mmap + checksum verify + zero-copy adopt.
//
// Part 2 — kill/recover. A StorageManager-backed service persists a graph,
// streams WAL-logged update batches (left uncompacted), serves and persists
// a verified answer — then everything is dropped without any shutdown
// handshake (exactly what SIGKILL leaves behind: the fsync'd files) and the
// clock runs on Open + RecoverAll + warm-cache restore until the same
// query is served warm again.
//
// Part 3 — concurrent update throughput. 8 writer threads stream update
// batches into ONE graph's WAL twice: once with fsync-per-batch (the
// single-writer fallback: every record pays its own open+write+fsync+close,
// and the chain ordering serializes them) and once with group commit
// (records enqueue in chain order under the ordering lock, then wait
// outside it, so a leader fsyncs many batches at once). Both runs end with
// a SIGKILL-style drop + RecoverAll proving every acknowledged batch
// survived at its exact fingerprint.
//
// Asserts (exit non-zero otherwise):
//   - both formats load the same graph (fingerprint-checked for FCG2);
//   - mmap-CSR (FCG2) load is >= 5x faster than the text parse;
//   - the recovered service serves the identical verified clique at the
//     identical epoch, from cache (no search);
//   - group commit sustains >= 3x the fsync-per-batch update throughput,
//     with kill/recover equivalence holding in both modes.
//
// Env: FAIRCLIQUE_BENCH_SCALE, FAIRCLIQUE_BENCH_TIMEOUT,
// FAIRCLIQUE_BENCH_JSON_DIR (BENCH_storage.json).

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/fairclique.h"

namespace fairclique {
namespace {

using bench::BenchScale;
using bench::BenchTimeout;
using bench::BestBoundFor;

bool Check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "FAIL: %s\n", what);
  return ok;
}

/// Best-of-reps wall time of `fn` in milliseconds.
template <typename Fn>
double BestMs(int reps, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    double ms = timer.ElapsedMicros() / 1000.0;
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

/// Outcome of one Part-3 run (one WAL-append mode).
struct UpdateRunResult {
  double updates_per_sec = 0.0;
  uint64_t acked_batches = 0;
  uint64_t group_commits = 0;  // fsync groups issued (== batches when serial)
  bool ok = false;
};

/// Streams `writers x batches_per_writer` single-op update batches into one
/// graph's WAL with `group_commit` on or off, timing the durable-ack
/// throughput; then drops the manager SIGKILL-style (no Replace — the WAL
/// is the only durability) and proves RecoverAll rebuilds exactly the last
/// acknowledged fingerprint with every acknowledged batch replayed.
UpdateRunResult RunConcurrentUpdates(const std::string& data_dir,
                                     bool group_commit, int writers,
                                     int batches_per_writer,
                                     int64_t group_window_micros) {
  UpdateRunResult out;
  // A small, SIZE-STABLE graph keeps DynamicGraph::Apply (full snapshot +
  // fingerprint per batch, O(n+m)) far below fsync cost, so the WAL path is
  // what is measured: each writer toggles its own dedicated non-edge
  // (add, remove, add, ...) instead of growing the graph.
  Rng rng(0xBEEF);
  AttributedGraph base =
      AssignAttributesBernoulli(ErdosRenyi(32, 0.1, rng), 0.5, rng);
  std::vector<Edge> toggles =
      SampleNonEdges(base, static_cast<size_t>(writers), rng);
  if (toggles.size() != static_cast<size_t>(writers)) return out;

  std::mutex order_mu;   // holds (Apply, AppendUpdateAsync) pairs together
  std::mutex ack_mu;
  std::map<uint64_t, uint64_t> acked;  // version -> fingerprint
  std::atomic<int> errors{0};
  double elapsed_seconds = 0.0;
  uint64_t group_commits = 0;

  {
    storage::StorageManager::Options options;
    options.wal_compaction_threshold = 1u << 20;  // keep the WAL whole
    options.group_commit = group_commit;
    options.group_window_micros = group_window_micros;
    std::unique_ptr<storage::StorageManager> manager;
    if (!storage::StorageManager::Open(data_dir, options, &manager).ok()) {
      return out;
    }
    if (!manager
             ->PersistGraph("hot", base, 0, GraphFingerprint(base), "bench")
             .ok()) {
      return out;
    }
    DynamicGraph dyn(base);

    WallTimer timer;
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        const Edge toggle = toggles[static_cast<size_t>(w)];
        for (int b = 0; b < batches_per_writer; ++b) {
          std::vector<UpdateOp> batch = {
              b % 2 == 0 ? AddEdgeOp(toggle.u, toggle.v)
                         : RemoveEdgeOp(toggle.u, toggle.v)};
          UpdateSummary summary;
          storage::StorageManager::AppendTicket ticket;
          Status status;
          {
            std::lock_guard<std::mutex> lock(order_mu);
            status = dyn.Apply(batch, &summary);
            if (status.ok()) {
              status =
                  manager->AppendUpdateAsync("hot", summary, batch, &ticket);
            }
          }
          if (status.ok()) status = ticket.Wait();  // durability ack
          if (!status.ok()) {
            errors.fetch_add(1);
            return;
          }
          std::lock_guard<std::mutex> lock(ack_mu);
          acked[summary.version] = summary.fingerprint;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    elapsed_seconds = timer.ElapsedSeconds();
    storage::StorageCounters counters = manager->counters();
    group_commits = group_commit ? counters.wal_group_commits
                                 : counters.wal_records_appended;
    // SIGKILL: scope exit, no OnReplace, no handshake.
  }

  if (errors.load() != 0 || acked.empty()) return out;
  std::unique_ptr<storage::StorageManager> reopened;
  if (!storage::StorageManager::Open(
           data_dir, storage::StorageManager::Options{}, &reopened)
           .ok()) {
    return out;
  }
  std::vector<storage::RecoveredGraph> recovered;
  if (!reopened->RecoverAll(&recovered).ok() || recovered.size() != 1) {
    return out;
  }
  const auto [last_version, last_fp] = *acked.rbegin();
  if (recovered[0].version != last_version ||
      recovered[0].fingerprint != last_fp ||
      recovered[0].wal_records_replayed != acked.size() ||
      GraphFingerprint(*recovered[0].graph) != last_fp) {
    std::fprintf(stderr,
                 "FAIL: recovery after %s run lost acknowledged batches "
                 "(recovered v%llu, acked v%llu)\n",
                 group_commit ? "group-commit" : "fsync-per-batch",
                 static_cast<unsigned long long>(recovered[0].version),
                 static_cast<unsigned long long>(last_version));
    return out;
  }

  out.acked_batches = acked.size();
  out.group_commits = group_commits;
  out.updates_per_sec =
      elapsed_seconds > 0 ? static_cast<double>(acked.size()) / elapsed_seconds
                          : 0.0;
  out.ok = true;
  return out;
}

}  // namespace
}  // namespace fairclique

int main() {
  using namespace fairclique;
  SetLogLevel(LogLevel::kWarning);

  const std::string dataset = "dblp-s";
  const int kLoadReps = 5;
  SearchOptions options = FullOptions(3, 1, BestBoundFor(dataset));
  options.time_limit_seconds = BenchTimeout();

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("fairclique_bench_storage_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto path = [&dir](const std::string& name) {
    return (dir / name).string();
  };

  AttributedGraph g = LoadDataset(dataset, BenchScale());
  const uint64_t fp = GraphFingerprint(g);
  std::printf("bench_storage: %s (%u vertices, %u edges)\n", dataset.c_str(),
              g.num_vertices(), g.num_edges());

  bool ok = true;

  // ---- Part 1: text vs mmap-CSR FCG2 load. -------------------------------
  ok &= Check(SaveEdgeList(g, path("g.txt")).ok() &&
                  SaveAttributes(g, path("g.attrs")).ok() &&
                  storage::SaveFcg2(g, path("g.fcg2")).ok(),
              "saving the two formats failed");

  EdgeListOptions text_options;
  text_options.remap_ids = false;  // keep labels identical to the saver's
  AttributedGraph text_loaded, fcg2_loaded;
  double text_ms = BestMs(kLoadReps, [&] {
    ok &= LoadAttributedGraph(path("g.txt"), path("g.attrs"), text_options,
                              &text_loaded)
              .ok();
  });
  double fcg2_ms = BestMs(kLoadReps, [&] {
    ok &= storage::LoadFcg2(path("g.fcg2"), &fcg2_loaded).ok();
  });
  ok &= Check(ok, "a load failed");
  ok &= Check(text_loaded.num_vertices() == g.num_vertices() &&
                  text_loaded.num_edges() == g.num_edges(),
              "text round trip changed the graph");
  ok &= Check(GraphFingerprint(fcg2_loaded) == fp,
              "FCG2 round trip changed the fingerprint");

  double fcg2_speedup = fcg2_ms > 0 ? text_ms / fcg2_ms : 0.0;
  std::printf("  load: text %.2f ms | FCG2 mmap %.3f ms (%.1fx)\n", text_ms,
              fcg2_ms, fcg2_speedup);
  ok &= Check(fcg2_speedup >= 5.0, "FCG2 mmap load < 5x faster than text");

  // ---- Part 2: kill/recover. ---------------------------------------------
  const std::string data_dir = path("data");
  const int kBatches = 6;
  const size_t kOpsPerBatch = 4;
  size_t clique_before = 0;
  std::vector<VertexId> witness_before;
  uint64_t version_before = 0;

  {
    std::unique_ptr<storage::StorageManager> manager;
    storage::StorageManager::Options sopts;
    sopts.wal_compaction_threshold = 1000;  // keep the tail uncompacted
    ok &= Check(
        storage::StorageManager::Open(data_dir, sopts, &manager).ok(),
        "storage open failed");

    GraphRegistry registry;
    ResultCache cache(128);
    registry.AttachCache(&cache);
    registry.AttachStorage(manager.get());
    QueryExecutor executor(ExecutorOptions{1, 64}, &cache);
    ok &= Check(registry.Add(dataset, g, "dataset:" + dataset).ok(),
                "registry add failed");

    DynamicGraph dyn(*registry.Get(dataset)->graph);
    Rng rng(20260728);
    for (int b = 0; b < kBatches; ++b) {
      std::vector<UpdateOp> batch;
      for (const Edge& e : SampleNonEdges(*dyn.snapshot(), kOpsPerBatch, rng)) {
        batch.push_back(AddEdgeOp(e.u, e.v));
      }
      UpdateSummary summary;
      ok &= Check(dyn.Apply(batch, &summary).ok(), "apply failed");
      ok &= Check(manager->AppendUpdate(dataset, summary, batch).ok(),
                  "WAL append failed");
      ok &= Check(registry.Replace(dataset, dyn.snapshot(), summary.version,
                                   &summary)
                      .ok(),
                  "replace failed");
    }
    version_before = registry.Get(dataset)->version;

    QueryRequest request;
    request.graph = registry.Get(dataset);
    request.options = options;
    QueryResponse response = executor.Run(request);
    ok &= Check(response.status.ok() && response.result != nullptr,
                "pre-crash query failed");
    if (response.result != nullptr) {
      clique_before = response.result->clique.size();
      witness_before = response.result->clique.vertices;
    }
    ok &= Check(manager->SaveWarmEntries(cache.ExportWarmEntries()).ok(),
                "warm save failed");
    // No shutdown handshake happens here on purpose: every durable write
    // already fsync'd, which is exactly the state a SIGKILL leaves.
  }

  WallTimer recover_timer;
  size_t clique_after = 0;
  bool served_from_cache = false;
  uint64_t version_after = 0;
  uint64_t wal_replayed = 0;
  {
    std::unique_ptr<storage::StorageManager> manager;
    ok &= Check(storage::StorageManager::Open(
                    data_dir, storage::StorageManager::Options{}, &manager)
                    .ok(),
                "storage reopen failed");
    std::vector<storage::RecoveredGraph> recovered;
    ok &= Check(manager->RecoverAll(&recovered).ok() && recovered.size() == 1,
                "recover failed");

    GraphRegistry registry;
    ResultCache cache(128);
    registry.AttachCache(&cache);
    QueryExecutor executor(ExecutorOptions{1, 64}, &cache);
    for (storage::RecoveredGraph& r : recovered) {
      wal_replayed += r.wal_records_replayed;
      ok &= Check(registry.Restore(r.name, r.graph, r.version, r.source).ok(),
                  "registry restore failed");
    }
    std::vector<storage::WarmEntry> warm;
    ok &= Check(manager->LoadWarmEntries(&warm).ok(), "warm load failed");
    WarmRestoreOutcome warm_outcome =
        RestoreWarmEntries(registry, &cache, std::move(warm));
    ok &= Check(warm_outcome.restored > 0, "no warm entries restored");

    QueryRequest request;
    request.graph = registry.Get(dataset);
    request.options = options;
    QueryResponse response = executor.Run(request);
    ok &= Check(response.status.ok() && response.result != nullptr,
                "post-recovery query failed");
    if (response.result != nullptr) {
      clique_after = response.result->clique.size();
      served_from_cache = response.cache_hit;
      ok &= Check(response.result->clique.vertices == witness_before,
                  "recovered witness differs from pre-crash answer");
      ok &= Check(VerifyFairClique(*registry.Get(dataset)->graph,
                                   response.result->clique.vertices,
                                   options.params)
                      .ok(),
                  "recovered clique failed verification");
    }
    version_after = registry.Get(dataset)->version;
  }
  double recover_ms = recover_timer.ElapsedMicros() / 1000.0;

  // ---- Part 3: concurrent updates, group commit vs fsync-per-batch. ------
  const int kWriters = 8;
  const int kBatchesPerWriter = 40;
  UpdateRunResult serial =
      RunConcurrentUpdates(path("upd-serial"), /*group_commit=*/false,
                           kWriters, kBatchesPerWriter, 0);
  // Window the leader at ~half the measured per-batch fsync cost: enough
  // for all writers to join the group on disks where the fsync is the
  // bottleneck, negligible where it is not (tmpfs-style fsyncs).
  int64_t window_micros = 0;
  if (serial.ok && serial.updates_per_sec > 0) {
    window_micros = static_cast<int64_t>(
        std::min(500.0, 0.5 * 1e6 / serial.updates_per_sec));
  }
  UpdateRunResult grouped =
      RunConcurrentUpdates(path("upd-group"), /*group_commit=*/true, kWriters,
                           kBatchesPerWriter, window_micros);
  ok &= Check(serial.ok, "fsync-per-batch run failed kill/recover proof");
  ok &= Check(grouped.ok, "group-commit run failed kill/recover proof");
  double group_speedup = serial.updates_per_sec > 0
                             ? grouped.updates_per_sec / serial.updates_per_sec
                             : 0.0;
  double batches_per_fsync =
      grouped.group_commits > 0
          ? static_cast<double>(grouped.acked_batches) /
                static_cast<double>(grouped.group_commits)
          : 0.0;
  std::printf(
      "  updates (%d writers, one graph): fsync-per-batch %.0f/s (%llu "
      "fsyncs) | group commit %.0f/s (%llu fsyncs, %.1f batches/fsync, "
      "window %lld us) -> %.1fx\n",
      kWriters, serial.updates_per_sec,
      static_cast<unsigned long long>(serial.group_commits),
      grouped.updates_per_sec,
      static_cast<unsigned long long>(grouped.group_commits),
      batches_per_fsync, static_cast<long long>(window_micros),
      group_speedup);
  ok &= Check(group_speedup >= 3.0,
              "group commit < 3x faster than fsync-per-batch");

  ok &= Check(clique_after == clique_before && clique_before > 0,
              "answer size changed across recovery");
  ok &= Check(served_from_cache, "recovered answer was not served warm");
  ok &= Check(version_after == version_before,
              "epoch changed across recovery");
  ok &= Check(wal_replayed == static_cast<uint64_t>(kBatches),
              "WAL tail not fully replayed");
  std::printf(
      "  kill/recover: %.2f ms to reopen + replay %llu WAL batches + serve "
      "the same verified size-%zu answer warm at epoch %llu\n",
      recover_ms, static_cast<unsigned long long>(wal_replayed), clique_after,
      static_cast<unsigned long long>(version_after));

  bench::EmitBenchJson(
      "storage",
      {{"text_load_ms", text_ms},
       {"fcg2_load_ms", fcg2_ms},
       {"fcg2_vs_text_speedup", fcg2_speedup},
       {"recover_ms", recover_ms},
       {"wal_records_replayed", static_cast<double>(wal_replayed)},
       {"serial_updates_per_sec", serial.updates_per_sec},
       {"group_updates_per_sec", grouped.updates_per_sec},
       {"group_commit_speedup", group_speedup},
       {"group_batches_per_fsync", batches_per_fsync}});

  std::filesystem::remove_all(dir);
  std::printf("\nmmap-CSR vs text parse: %.1fx (need >= 5x)\n", fcg2_speedup);
  std::printf("group-commit vs fsync-per-batch: %.1fx (need >= 3x)\n",
              group_speedup);
  std::printf("recovery equivalence verified: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
