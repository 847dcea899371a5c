// Tests of the durable storage subsystem (src/storage): the FCG2 mmap
// container, the update WAL, the manifest, the StorageManager's
// write-through + compaction + recovery, the verifier-checked warm cache,
// and the GraphRegistry wiring (write-through, kAuto sniffing, Restore).
//
// The recovery tests tear the in-memory side down with no shutdown
// handshake at all — every durable write is fsync'd at operation time, so
// "drop everything and reopen the data dir" is exactly the SIGKILL state.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/max_fair_clique.h"
#include "core/verifier.h"
#include "datasets/datasets.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "service/graph_registry.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "storage/fcg2.h"
#include "storage/manifest.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"
#include "storage/warm_file.h"
#include "test_util.h"

namespace fairclique {
namespace {

using storage::LoadFcg2;
using storage::SaveFcg2;
using testing_util::EdgesOf;
using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fairclique_storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

// ------------------------------------------------------------------- FCG2 --

TEST_F(StorageTest, Fcg2RoundTripIsExact) {
  AttributedGraph g = RandomAttributedGraph(150, 0.07, 11);
  ASSERT_TRUE(SaveFcg2(g, Path("g.fcg2")).ok());
  AttributedGraph loaded;
  ASSERT_TRUE(LoadFcg2(Path("g.fcg2"), &loaded).ok());
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(EdgesOf(loaded), EdgesOf(g));
  EXPECT_EQ(loaded.max_degree(), g.max_degree());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(loaded.attribute(v), g.attribute(v));
  }
  EXPECT_TRUE(loaded.Validate().ok());
  EXPECT_EQ(GraphFingerprint(loaded), GraphFingerprint(g));
}

TEST_F(StorageTest, Fcg2RoundTripEmptyAndEdgelessGraphs) {
  for (VertexId n : {0u, 5u}) {
    AttributedGraph g = GraphBuilder(n).Build();
    ASSERT_TRUE(SaveFcg2(g, Path("e.fcg2")).ok());
    AttributedGraph loaded;
    ASSERT_TRUE(LoadFcg2(Path("e.fcg2"), &loaded).ok());
    EXPECT_EQ(loaded.num_vertices(), n);
    EXPECT_EQ(loaded.num_edges(), 0u);
  }
}

TEST_F(StorageTest, Fcg2LoadedGraphSurvivesFileDeletionAndCopies) {
  // The zero-copy view must keep the mapping alive through copies and the
  // unlink of the backing file (POSIX keeps mapped pages valid).
  AttributedGraph g = RandomAttributedGraph(80, 0.1, 3);
  ASSERT_TRUE(SaveFcg2(g, Path("z.fcg2")).ok());
  AttributedGraph copy;
  {
    AttributedGraph loaded;
    ASSERT_TRUE(LoadFcg2(Path("z.fcg2"), &loaded).ok());
    copy = loaded;  // shares the mapping
  }
  std::filesystem::remove(Path("z.fcg2"));
  EXPECT_EQ(GraphFingerprint(copy), GraphFingerprint(g));
  EXPECT_TRUE(copy.Validate().ok());
}

TEST_F(StorageTest, Fcg2SearchAnswersMatchBuiltGraph) {
  // The spans-over-mmap representation must be indistinguishable to the
  // algorithms: same maximum fair clique as the builder-backed graph.
  AttributedGraph g = RandomAttributedGraph(60, 0.25, 7);
  ASSERT_TRUE(SaveFcg2(g, Path("s.fcg2")).ok());
  AttributedGraph loaded;
  ASSERT_TRUE(LoadFcg2(Path("s.fcg2"), &loaded).ok());
  SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  SearchResult a = FindMaximumFairClique(g, options);
  SearchResult b = FindMaximumFairClique(loaded, options);
  EXPECT_EQ(a.clique.size(), b.clique.size());
  EXPECT_TRUE(VerifyFairClique(g, b.clique.vertices, options.params).ok());
}

TEST_F(StorageTest, Fcg2TruncationSweepRejectsEveryPrefix) {
  AttributedGraph g = RandomAttributedGraph(25, 0.2, 9);
  ASSERT_TRUE(SaveFcg2(g, Path("t.fcg2")).ok());
  const std::string bytes = ReadBytes(Path("t.fcg2"));
  ASSERT_GT(bytes.size(), 200u);
  // Sweep every prefix short of the full file (step 1 near the interesting
  // header/table boundary, coarser beyond to keep the test quick).
  for (size_t len = 0; len < bytes.size();
       len += (len < 256 ? 1 : 37)) {
    WriteBytes(Path("p.fcg2"), bytes.substr(0, len));
    AttributedGraph loaded;
    Status status = LoadFcg2(Path("p.fcg2"), &loaded);
    EXPECT_FALSE(status.ok()) << "prefix length " << len << " loaded";
  }
}

TEST_F(StorageTest, Fcg2RejectsTrailingGarbageAndNeverMisloads) {
  AttributedGraph g = RandomAttributedGraph(40, 0.15, 5);
  ASSERT_TRUE(SaveFcg2(g, Path("c.fcg2")).ok());
  const std::string bytes = ReadBytes(Path("c.fcg2"));
  const uint64_t fp = GraphFingerprint(g);

  WriteBytes(Path("c2.fcg2"), bytes + "junk");
  AttributedGraph loaded;
  EXPECT_TRUE(LoadFcg2(Path("c2.fcg2"), &loaded).IsCorruption());

  // Flip one byte at a sample of positions. Checksums cover the header,
  // table and sections; only inter-section padding is outside them, so a
  // flip either fails the load or loads the identical graph — never a
  // different one.
  for (size_t pos = 0; pos < bytes.size(); pos += 13) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteBytes(Path("c3.fcg2"), corrupt);
    AttributedGraph maybe;
    Status status = LoadFcg2(Path("c3.fcg2"), &maybe);
    if (status.ok()) {
      EXPECT_EQ(GraphFingerprint(maybe), fp) << "byte " << pos;
    }
  }
}

TEST_F(StorageTest, Fcg2RejectsWrappingSectionOffset) {
  // A hostile file can keep its header/table checksum self-consistent while
  // pointing a section near UINT64_MAX so that offset + length wraps; the
  // bounds check must be wrap-proof or the checksum pass reads wild memory.
  AttributedGraph g = RandomAttributedGraph(30, 0.2, 13);
  ASSERT_TRUE(SaveFcg2(g, Path("w.fcg2")).ok());
  std::string bytes = ReadBytes(Path("w.fcg2"));
  auto put_u64 = [&bytes](size_t pos, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  // Section entry 1 (adjacency) lives at 32 + 32; its offset field is +8.
  put_u64(32 + 32 + 8, 0xfffffffffffff000ull);  // 8-aligned, wraps with len
  // Recompute the table checksum over bytes [0, 192) the way the writer
  // does, so only the bounds check stands between the file and a crash.
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < 192; ++i) {
    h = (h ^ static_cast<uint8_t>(bytes[i])) * 1099511628211ull;
  }
  put_u64(192, h);
  WriteBytes(Path("w.fcg2"), bytes);
  AttributedGraph loaded;
  Status status = LoadFcg2(Path("w.fcg2"), &loaded);
  ASSERT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("out of bounds"), std::string::npos);
}

// -------------------------------------------------------------------- WAL --

TEST_F(StorageTest, WalRoundTripPreservesRecords) {
  storage::WalRecord r1;
  r1.base_fingerprint = 111;
  r1.fingerprint = 222;
  r1.version = 1;
  r1.ops = {AddEdgeOp(3, 9), RemoveEdgeOp(2, 5), AddVertexOp(Attribute::kB),
            SetAttributeOp(7, Attribute::kB)};
  storage::WalRecord r2;
  r2.base_fingerprint = 222;
  r2.fingerprint = 333;
  r2.version = 2;
  r2.ops = {AddEdgeOp(0, 1)};
  ASSERT_TRUE(storage::AppendWalRecord(Path("w.wal"), r1).ok());
  ASSERT_TRUE(storage::AppendWalRecord(Path("w.wal"), r2).ok());

  std::vector<storage::WalRecord> records;
  bool torn = true;
  ASSERT_TRUE(storage::ReadWal(Path("w.wal"), &records, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].base_fingerprint, 111u);
  EXPECT_EQ(records[0].version, 1u);
  ASSERT_EQ(records[0].ops.size(), 4u);
  EXPECT_EQ(records[0].ops[0].kind, UpdateKind::kAddEdge);
  EXPECT_EQ(records[0].ops[0].u, 3u);
  EXPECT_EQ(records[0].ops[0].v, 9u);
  EXPECT_EQ(records[0].ops[2].kind, UpdateKind::kAddVertex);
  EXPECT_EQ(records[0].ops[2].attr, Attribute::kB);
  EXPECT_EQ(records[0].ops[3].kind, UpdateKind::kSetAttribute);
  EXPECT_EQ(records[0].ops[3].u, 7u);
  EXPECT_EQ(records[1].fingerprint, 333u);
}

TEST_F(StorageTest, WalMissingFileIsEmptyLog) {
  std::vector<storage::WalRecord> records = {storage::WalRecord{}};
  bool torn = true;
  ASSERT_TRUE(storage::ReadWal(Path("absent.wal"), &records, &torn).ok());
  EXPECT_TRUE(records.empty());
  EXPECT_FALSE(torn);
}

TEST_F(StorageTest, WalTornTailKeepsIntactPrefix) {
  storage::WalRecord r;
  r.ops = {AddEdgeOp(1, 2)};
  for (uint64_t v = 1; v <= 3; ++v) {
    r.version = v;
    ASSERT_TRUE(storage::AppendWalRecord(Path("torn.wal"), r).ok());
  }
  std::string bytes = ReadBytes(Path("torn.wal"));
  // Chop into the middle of the third record: crash mid-append.
  WriteBytes(Path("torn.wal"), bytes.substr(0, bytes.size() - 5));
  std::vector<storage::WalRecord> records;
  bool torn = false;
  ASSERT_TRUE(storage::ReadWal(Path("torn.wal"), &records, &torn).ok());
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].version, 2u);
}

TEST_F(StorageTest, WalMidFileCorruptionIsLoudNotTruncated) {
  storage::WalRecord r;
  r.ops = {AddEdgeOp(1, 2)};
  for (uint64_t v = 1; v <= 3; ++v) {
    r.version = v;
    ASSERT_TRUE(storage::AppendWalRecord(Path("mid.wal"), r).ok());
  }
  std::string bytes = ReadBytes(Path("mid.wal"));

  // A corrupt byte inside an EARLIER record is not a torn tail: records 2-3
  // are still intact behind it, which a crash (that can only cut the end of
  // an append-only file) could never produce. Silently stopping there would
  // truncate fsync-acknowledged history, so the read must fail loudly.
  std::string corrupt = bytes;
  corrupt[20] = static_cast<char>(corrupt[20] ^ 0xff);
  WriteBytes(Path("mid.wal"), corrupt);
  std::vector<storage::WalRecord> records = {storage::WalRecord{}};
  bool torn = true;
  Status status = storage::ReadWal(Path("mid.wal"), &records, &torn);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_TRUE(records.empty());  // nothing decodable before the failure

  // The same flip in the LAST record leaves nothing intact after it — that
  // is indistinguishable from a torn tail, and is treated as one.
  std::string tail_flip = bytes;
  tail_flip[bytes.size() - 3] =
      static_cast<char>(tail_flip[bytes.size() - 3] ^ 0xff);
  WriteBytes(Path("mid.wal"), tail_flip);
  ASSERT_TRUE(storage::ReadWal(Path("mid.wal"), &records, &torn).ok());
  EXPECT_TRUE(torn);
  EXPECT_EQ(records.size(), 2u);
}


// --------------------------------------------------------------- manifest --

TEST_F(StorageTest, ManifestRoundTripWithHostileNames) {
  storage::Manifest manifest;
  storage::ManifestEntry e;
  e.name = "with space \n%percent\tand\x01control";
  e.snapshot_file = "snap.0.fcg2";
  e.wal_file = "snap.0.wal";
  e.snapshot_version = 42;
  e.snapshot_fingerprint = 0xdeadbeefcafef00dull;
  e.source = "";
  manifest.entries.push_back(e);
  storage::ManifestEntry plain;
  plain.name = "plain";
  plain.snapshot_file = "p.1.fcg2";
  plain.snapshot_version = 1;
  plain.snapshot_fingerprint = 7;
  plain.source = "dataset:dblp-s";
  manifest.entries.push_back(plain);

  ASSERT_TRUE(storage::SaveManifest(manifest, Path("MANIFEST")).ok());
  storage::Manifest loaded;
  ASSERT_TRUE(storage::LoadManifest(Path("MANIFEST"), &loaded).ok());
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.entries[0].name, e.name);
  EXPECT_EQ(loaded.entries[0].wal_file, "snap.0.wal");
  EXPECT_EQ(loaded.entries[0].snapshot_version, 42u);
  EXPECT_EQ(loaded.entries[0].snapshot_fingerprint, e.snapshot_fingerprint);
  EXPECT_EQ(loaded.entries[0].source, "");
  EXPECT_EQ(loaded.entries[1].wal_file, "");
  EXPECT_EQ(loaded.entries[1].source, "dataset:dblp-s");
}

TEST_F(StorageTest, ManifestRejectsTampering) {
  storage::Manifest manifest;
  storage::ManifestEntry e;
  e.name = "g";
  e.snapshot_file = "g.0.fcg2";
  e.snapshot_version = 1;
  manifest.entries.push_back(e);
  ASSERT_TRUE(storage::SaveManifest(manifest, Path("MANIFEST")).ok());

  std::string bytes = ReadBytes(Path("MANIFEST"));
  std::string tampered = bytes;
  size_t pos = tampered.find("g.0.fcg2");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos] = 'x';
  WriteBytes(Path("MANIFEST"), tampered);
  storage::Manifest loaded;
  EXPECT_TRUE(storage::LoadManifest(Path("MANIFEST"), &loaded).IsCorruption());

  storage::Manifest missing;
  EXPECT_TRUE(storage::LoadManifest(Path("NOPE"), &missing).IsNotFound());
}

// ---------------------------------------------------------- StorageManager --

std::unique_ptr<storage::StorageManager> OpenManager(
    const std::string& dir, size_t wal_threshold = 1000) {
  storage::StorageManager::Options options;
  options.wal_compaction_threshold = wal_threshold;
  std::unique_ptr<storage::StorageManager> manager;
  Status status = storage::StorageManager::Open(dir, options, &manager);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return manager;
}

TEST_F(StorageTest, ManagerPersistAndRecoverSnapshotOnly) {
  AttributedGraph g = RandomAttributedGraph(70, 0.1, 21);
  const uint64_t fp = GraphFingerprint(g);
  {
    auto manager = OpenManager(Path("data"));
    ASSERT_TRUE(manager->PersistGraph("g", g, 0, fp, "test").ok());
  }  // dropped with no shutdown handshake

  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].name, "g");
  EXPECT_EQ(recovered[0].version, 0u);
  EXPECT_EQ(recovered[0].fingerprint, fp);
  EXPECT_EQ(recovered[0].source, "test");
  EXPECT_EQ(GraphFingerprint(*recovered[0].graph), fp);
  EXPECT_EQ(manager->counters().recoveries, 1u);
}

TEST_F(StorageTest, ManagerWalReplayRecoversUncompactedTail) {
  AttributedGraph base = RandomAttributedGraph(50, 0.15, 33);
  uint64_t final_fp = 0, final_version = 0;
  {
    auto manager = OpenManager(Path("data"));
    ASSERT_TRUE(
        manager->PersistGraph("g", base, 0, GraphFingerprint(base), "t").ok());
    DynamicGraph dyn(base);
    for (int b = 0; b < 4; ++b) {
      std::vector<UpdateOp> batch = {
          AddVertexOp(b % 2 == 0 ? Attribute::kA : Attribute::kB),
          AddEdgeOp(static_cast<VertexId>(b), dyn.num_vertices())};
      UpdateSummary summary;
      ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
      ASSERT_TRUE(manager->AppendUpdate("g", summary, batch).ok());
    }
    final_fp = dyn.fingerprint();
    final_version = dyn.version();
    EXPECT_EQ(manager->counters().wal_records_appended, 4u);
  }

  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].version, final_version);
  EXPECT_EQ(recovered[0].fingerprint, final_fp);
  EXPECT_EQ(recovered[0].wal_records_replayed, 4u);
  EXPECT_EQ(GraphFingerprint(*recovered[0].graph), final_fp);
}

TEST_F(StorageTest, ManagerRecoveryToleratesTornWalTail) {
  AttributedGraph base = RandomAttributedGraph(40, 0.15, 35);
  uint64_t fp_after_two = 0;
  std::string wal_file;
  {
    auto manager = OpenManager(Path("data"));
    ASSERT_TRUE(
        manager->PersistGraph("g", base, 0, GraphFingerprint(base), "t").ok());
    DynamicGraph dyn(base);
    for (int b = 0; b < 3; ++b) {
      std::vector<UpdateOp> batch = {AddVertexOp(Attribute::kB)};
      UpdateSummary summary;
      ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
      ASSERT_TRUE(manager->AppendUpdate("g", summary, batch).ok());
      if (b == 1) fp_after_two = dyn.fingerprint();
    }
  }
  // Tear the last record, as a crash mid-append would.
  for (const auto& entry : std::filesystem::directory_iterator(Path("data"))) {
    if (entry.path().extension() == ".wal") {
      wal_file = entry.path().string();
    }
  }
  ASSERT_FALSE(wal_file.empty());
  std::string bytes = ReadBytes(wal_file);
  WriteBytes(wal_file, bytes.substr(0, bytes.size() - 3));

  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].version, 2u);
  EXPECT_EQ(recovered[0].fingerprint, fp_after_two);
  // The torn tail was truncated away: a second recovery replays cleanly.
  auto manager2 = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> again;
  ASSERT_TRUE(manager2->RecoverAll(&again).ok());
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].version, 2u);
  EXPECT_EQ(again[0].fingerprint, fp_after_two);
}

TEST_F(StorageTest, RecoveryRefusesWalWithMidFileCorruption) {
  // End to end: a graph whose WAL is corrupted mid-file must be SKIPPED by
  // recovery (counted in recover_failures), never served at a silently
  // truncated epoch.
  AttributedGraph base = RandomAttributedGraph(40, 0.15, 77);
  std::string wal_file;
  {
    auto manager = OpenManager(Path("data"));
    ASSERT_TRUE(
        manager->PersistGraph("g", base, 0, GraphFingerprint(base), "t").ok());
    DynamicGraph dyn(base);
    for (int b = 0; b < 3; ++b) {
      std::vector<UpdateOp> batch = {AddVertexOp(Attribute::kB)};
      UpdateSummary summary;
      ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
      ASSERT_TRUE(manager->AppendUpdate("g", summary, batch).ok());
    }
  }
  for (const auto& entry : std::filesystem::directory_iterator(Path("data"))) {
    if (entry.path().extension() == ".wal") wal_file = entry.path().string();
  }
  ASSERT_FALSE(wal_file.empty());
  std::string bytes = ReadBytes(wal_file);
  bytes[18] = static_cast<char>(bytes[18] ^ 0x55);  // inside record 1
  WriteBytes(wal_file, bytes);

  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  EXPECT_TRUE(recovered.empty());
  EXPECT_EQ(manager->counters().recover_failures, 1u);
  EXPECT_EQ(manager->counters().recoveries, 0u);

  // The stripe is poisoned: appending to the unrecoverable log must be
  // refused — an fsync'd ack into that file could never be replayed. Only
  // a snapshot rewrite may supersede it.
  DynamicGraph dyn(base);
  std::vector<UpdateOp> batch = {AddVertexOp(Attribute::kA)};
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
  EXPECT_TRUE(manager->AppendUpdate("g", summary, batch).IsIOError());
}

TEST_F(StorageTest, StaleUnchainedWalPoisonsAppendsUntilRecovery) {
  // A manifest-referenced WAL whose records do not chain from the snapshot
  // (a crashed rewrite's leftover). Open must refuse to append after it —
  // an fsync'd ack there would be discarded by the next recovery — until
  // RecoverAll truncates the stale log away.
  AttributedGraph base = MakeGraph("aabb", {{0, 1}, {1, 2}});
  const uint64_t fp = GraphFingerprint(base);
  std::filesystem::create_directories(Path("data"));
  ASSERT_TRUE(storage::SaveFcg2(base, Path("data/g-x.0.snap.fcg2")).ok());
  storage::WalRecord stale;
  stale.base_fingerprint = 0xDEAD;  // does not chain from the snapshot
  stale.fingerprint = 0xBEEF;
  stale.version = 7;
  stale.ops = {AddVertexOp(Attribute::kA)};
  ASSERT_TRUE(
      storage::AppendWalRecord(Path("data/g-x.0.snap.fcg2.wal"), stale).ok());
  storage::Manifest manifest;
  storage::ManifestEntry entry;
  entry.name = "g";
  entry.snapshot_file = "g-x.0.snap.fcg2";
  entry.wal_file = "g-x.0.snap.fcg2.wal";
  entry.snapshot_version = 0;
  entry.snapshot_fingerprint = fp;
  manifest.entries.push_back(entry);
  ASSERT_TRUE(storage::SaveManifest(manifest, Path("data/MANIFEST")).ok());

  auto manager = OpenManager(Path("data"));
  DynamicGraph dyn(base);
  std::vector<UpdateOp> batch = {AddEdgeOp(0, 2)};
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
  EXPECT_TRUE(manager->AppendUpdate("g", summary, batch).IsIOError());

  // RecoverAll proves nothing replays, truncates the stale log, and
  // un-poisons: the same append then succeeds and is replayable.
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].version, 0u);
  EXPECT_EQ(recovered[0].wal_records_replayed, 0u);
  ASSERT_TRUE(manager->AppendUpdate("g", summary, batch).ok());
  auto manager2 = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> again;
  ASSERT_TRUE(manager2->RecoverAll(&again).ok());
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].version, summary.version);
  EXPECT_EQ(again[0].fingerprint, summary.fingerprint);
}

TEST_F(StorageTest, ForgetTombstonesRacingWriteThrough) {
  // An OnReplace that lost its race against Forget (the registry calls the
  // storage write-through outside its publish lock) must not resurrect the
  // evicted graph's durable state; an explicit re-persist clears the
  // tombstone.
  AttributedGraph base = MakeGraph("aabb", {{0, 1}, {1, 2}});
  auto manager = OpenManager(Path("data"));
  ASSERT_TRUE(
      manager->PersistGraph("g", base, 0, GraphFingerprint(base), "t").ok());
  ASSERT_TRUE(manager->Forget("g").ok());

  DynamicGraph dyn(base);
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(0, 2)}, &summary).ok());
  ASSERT_TRUE(
      manager->OnReplace("g", *dyn.snapshot(), summary.version,
                         summary.fingerprint)
          .ok());
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  EXPECT_TRUE(recovered.empty());  // the race did not resurrect "g"

  ASSERT_TRUE(
      manager->PersistGraph("g", base, 0, GraphFingerprint(base), "t").ok());
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
}

TEST_F(StorageTest, AppendTicketMoveTransfersWaitObligation) {
  AttributedGraph base = MakeGraph("aabb", {{0, 1}, {1, 2}});
  auto manager = OpenManager(Path("data"));
  ASSERT_TRUE(
      manager->PersistGraph("g", base, 0, GraphFingerprint(base), "t").ok());
  DynamicGraph dyn(base);
  std::vector<UpdateOp> batch = {AddEdgeOp(0, 2)};
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply(batch, &summary).ok());

  storage::StorageManager::AppendTicket a;
  ASSERT_TRUE(manager->AppendUpdateAsync("g", summary, batch, &a).ok());
  storage::StorageManager::AppendTicket b = std::move(a);
  EXPECT_TRUE(a.Wait().ok());  // moved-from: resolved, owes nothing
  EXPECT_TRUE(b.Wait().ok());  // the obligation traveled with the move
  EXPECT_TRUE(b.Wait().ok());  // idempotent
  EXPECT_EQ(manager->counters().wal_records_appended, 1u);

  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].fingerprint, summary.fingerprint);
}

// --------------------------------------------- group-commit multi-writer --

/// The tentpole's end-to-end proof: several graphs, several writer threads
/// per graph, every batch appended through the two-phase group-commit API
/// (enqueue under the graph's ordering lock, wait outside it), then the
/// whole service is dropped with NO shutdown handshake and NO Replace
/// write-through — the WAL is the only durability — and recovery must
/// rebuild, for every graph, a fingerprint-chain-consistent state
/// containing every acknowledged batch.
TEST_F(StorageTest, GroupCommitConcurrentWritersRecoverEveryAckedBatch) {
  constexpr int kGraphs = 3;
  constexpr int kWritersPerGraph = 2;
  constexpr int kBatchesPerWriter = 12;

  struct GraphLane {
    std::string name;
    std::unique_ptr<DynamicGraph> dyn;
    std::mutex order_mu;  // holds (Apply, AppendUpdateAsync) together
    std::mutex ack_mu;
    std::map<uint64_t, uint64_t> acked;  // version -> fingerprint
  };
  std::vector<GraphLane> lanes(kGraphs);

  uint64_t groups_committed = 0;
  {
    storage::StorageManager::Options options;
    options.wal_compaction_threshold = 1000;  // keep every record in the WAL
    options.group_commit = true;
    std::unique_ptr<storage::StorageManager> manager;
    ASSERT_TRUE(
        storage::StorageManager::Open(Path("data"), options, &manager).ok());

    for (int g = 0; g < kGraphs; ++g) {
      lanes[g].name = "lane-" + std::to_string(g);
      AttributedGraph base =
          RandomAttributedGraph(30, 0.15, 100 + static_cast<uint64_t>(g));
      ASSERT_TRUE(manager
                      ->PersistGraph(lanes[g].name, base, 0,
                                     GraphFingerprint(base), "stress")
                      .ok());
      lanes[g].dyn = std::make_unique<DynamicGraph>(base);
    }

    std::atomic<int> errors{0};
    std::vector<std::thread> writers;
    for (int g = 0; g < kGraphs; ++g) {
      for (int w = 0; w < kWritersPerGraph; ++w) {
        writers.emplace_back([&, g, w] {
          GraphLane& lane = lanes[g];
          for (int b = 0; b < kBatchesPerWriter; ++b) {
            std::vector<UpdateOp> batch = {
                AddVertexOp(w % 2 == 0 ? Attribute::kA : Attribute::kB)};
            UpdateSummary summary;
            storage::StorageManager::AppendTicket ticket;
            Status status;
            {
              std::lock_guard<std::mutex> lock(lane.order_mu);
              status = lane.dyn->Apply(batch, &summary);
              if (status.ok()) {
                status = manager->AppendUpdateAsync(lane.name, summary,
                                                    batch, &ticket);
              }
            }
            // Durability arrives OUTSIDE the ordering lock: this is where
            // batches of all six writers share fsyncs.
            if (status.ok()) status = ticket.Wait();
            if (!status.ok()) {
              errors.fetch_add(1);
              continue;
            }
            std::lock_guard<std::mutex> lock(lane.ack_mu);
            lane.acked[summary.version] = summary.fingerprint;
          }
        });
      }
    }
    for (std::thread& t : writers) t.join();
    ASSERT_EQ(errors.load(), 0);

    storage::StorageCounters counters = manager->counters();
    EXPECT_EQ(counters.wal_records_appended,
              static_cast<uint64_t>(kGraphs * kWritersPerGraph *
                                    kBatchesPerWriter));
    groups_committed = counters.wal_group_commits;
    EXPECT_GE(groups_committed, 1u);
    EXPECT_LE(groups_committed, counters.wal_records_appended);
    // SIGKILL semantics: scope exit drops everything un-flushed; only the
    // fsync'd WAL and snapshots survive. No OnReplace ever ran.
  }

  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), static_cast<size_t>(kGraphs));
  for (const storage::RecoveredGraph& r : recovered) {
    const GraphLane* lane = nullptr;
    for (const GraphLane& l : lanes) {
      if (l.name == r.name) lane = &l;
    }
    ASSERT_NE(lane, nullptr) << r.name;
    ASSERT_FALSE(lane->acked.empty());
    const auto [last_version, last_fp] = *lane->acked.rbegin();
    // Every acknowledged batch is in the recovered state, at the exact
    // fingerprint its ack promised — the write-ahead contract under
    // grouping.
    EXPECT_EQ(r.version, last_version) << r.name;
    EXPECT_EQ(r.fingerprint, last_fp) << r.name;
    EXPECT_EQ(r.wal_records_replayed, lane->acked.size()) << r.name;
    EXPECT_EQ(GraphFingerprint(*r.graph), last_fp) << r.name;
  }
}

/// Compaction under concurrent multi-graph write pressure: one graph's
/// snapshot rewrites (threshold crossings) must not corrupt another's
/// chain, and recovery equivalence must hold afterwards.
TEST_F(StorageTest, ConcurrentReplaceCompactionKeepsEveryGraphConsistent) {
  constexpr int kGraphs = 3;
  constexpr int kBatches = 10;

  struct Final {
    std::string name;
    uint64_t version = 0;
    uint64_t fingerprint = 0;
  };
  std::vector<Final> finals(kGraphs);
  {
    storage::StorageManager::Options options;
    options.wal_compaction_threshold = 3;  // force several compactions
    options.group_commit = true;
    std::unique_ptr<storage::StorageManager> manager;
    ASSERT_TRUE(
        storage::StorageManager::Open(Path("data"), options, &manager).ok());

    std::atomic<int> errors{0};
    std::vector<std::thread> writers;
    for (int g = 0; g < kGraphs; ++g) {
      writers.emplace_back([&, g] {
        const std::string name = "cg-" + std::to_string(g);
        AttributedGraph base =
            RandomAttributedGraph(25, 0.2, 200 + static_cast<uint64_t>(g));
        if (!manager
                 ->PersistGraph(name, base, 0, GraphFingerprint(base), "c")
                 .ok()) {
          errors.fetch_add(1);
          return;
        }
        DynamicGraph dyn(base);
        for (int b = 0; b < kBatches; ++b) {
          std::vector<UpdateOp> batch = {
              AddVertexOp(Attribute::kA),
              AddEdgeOp(static_cast<VertexId>(b), dyn.num_vertices())};
          UpdateSummary summary;
          if (!dyn.Apply(batch, &summary).ok() ||
              !manager->AppendUpdate(name, summary, batch).ok() ||
              !manager
                   ->OnReplace(name, *dyn.snapshot(), summary.version,
                               summary.fingerprint)
                   .ok()) {
            errors.fetch_add(1);
            return;
          }
        }
        finals[g] = {name, dyn.version(), dyn.fingerprint()};
      });
    }
    for (std::thread& t : writers) t.join();
    ASSERT_EQ(errors.load(), 0);
    EXPECT_GT(manager->counters().compactions, 0u);
  }

  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), static_cast<size_t>(kGraphs));
  for (const storage::RecoveredGraph& r : recovered) {
    const Final* fin = nullptr;
    for (const Final& f : finals) {
      if (f.name == r.name) fin = &f;
    }
    ASSERT_NE(fin, nullptr) << r.name;
    EXPECT_EQ(r.version, fin->version) << r.name;
    EXPECT_EQ(r.fingerprint, fin->fingerprint) << r.name;
    EXPECT_EQ(GraphFingerprint(*r.graph), fin->fingerprint) << r.name;
  }
}

TEST_F(StorageTest, OnReplaceIgnoresStaleEpochs) {
  // The write-through may reach storage out of publish order (the registry
  // releases its lock before calling it); an older epoch must be ignored,
  // never allowed to regress the durable snapshot.
  AttributedGraph base = MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}});
  auto manager = OpenManager(Path("data"));
  ASSERT_TRUE(
      manager->PersistGraph("g", base, 0, GraphFingerprint(base), "t").ok());

  DynamicGraph dyn(base);
  UpdateSummary s1, s2;
  std::vector<UpdateOp> b1 = {AddEdgeOp(0, 2)};
  std::vector<UpdateOp> b2 = {AddEdgeOp(0, 3)};
  ASSERT_TRUE(dyn.Apply(b1, &s1).ok());
  auto snap1 = dyn.snapshot();
  ASSERT_TRUE(manager->AppendUpdate("g", s1, b1).ok());
  ASSERT_TRUE(dyn.Apply(b2, &s2).ok());
  ASSERT_TRUE(manager->AppendUpdate("g", s2, b2).ok());

  // Newest epoch handled first; the stale one must be a no-op rather than
  // a snapshot rewrite back to version 1.
  ASSERT_TRUE(
      manager->OnReplace("g", *dyn.snapshot(), s2.version, s2.fingerprint)
          .ok());
  const uint64_t snapshots_after_v2 = manager->counters().snapshots_written;
  ASSERT_TRUE(
      manager->OnReplace("g", *snap1, s1.version, s1.fingerprint).ok());
  EXPECT_EQ(manager->counters().snapshots_written, snapshots_after_v2);

  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].version, s2.version);
  EXPECT_EQ(recovered[0].fingerprint, s2.fingerprint);
}

TEST_F(StorageTest, ManagerForgetRemovesDurableState) {
  AttributedGraph g = RandomAttributedGraph(30, 0.2, 12);
  {
    auto manager = OpenManager(Path("data"));
    ASSERT_TRUE(
        manager->PersistGraph("g", g, 0, GraphFingerprint(g), "t").ok());
    ASSERT_TRUE(manager->Forget("g").ok());
    EXPECT_TRUE(manager->Forget("never-existed").ok());
  }
  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  EXPECT_TRUE(recovered.empty());
  // Only the manifest remains in the dir.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(Path("data"))) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

// ------------------------------------------------- registry write-through --

TEST_F(StorageTest, RegistryWriteThroughPersistsAndForgets) {
  AttributedGraph g = RandomAttributedGraph(40, 0.2, 17);
  const uint64_t fp = GraphFingerprint(g);
  {
    auto manager = OpenManager(Path("data"));
    GraphRegistry registry;
    registry.AttachStorage(manager.get());
    ASSERT_TRUE(registry.Add("a", g, "test").ok());
    ASSERT_TRUE(registry.Add("b", g, "test").ok());
    EXPECT_EQ(manager->counters().snapshots_written, 2u);
    EXPECT_TRUE(registry.Evict("b"));
  }
  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].name, "a");
  EXPECT_EQ(recovered[0].fingerprint, fp);
}

TEST_F(StorageTest, RegistryReplaceWithoutWalRewritesSnapshot) {
  // A Replace that bypassed AppendUpdate must still become durable: the
  // write-through detects the uncovered epoch and snapshots it.
  AttributedGraph g = MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}});
  auto manager = OpenManager(Path("data"));
  GraphRegistry registry;
  registry.AttachStorage(manager.get());
  ASSERT_TRUE(registry.Add("g", g, "t").ok());

  DynamicGraph dyn(g);
  UpdateSummary summary;
  ASSERT_TRUE(dyn.Apply({AddEdgeOp(0, 3)}, &summary).ok());
  ASSERT_TRUE(
      registry.Replace("g", dyn.snapshot(), summary.version, &summary).ok());
  EXPECT_EQ(manager->counters().snapshots_written, 2u);

  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].version, 1u);
  EXPECT_EQ(recovered[0].fingerprint, dyn.fingerprint());
}

TEST_F(StorageTest, CompactionTruncatesWalAndStaysRecoverable) {
  AttributedGraph base = RandomAttributedGraph(40, 0.15, 51);
  auto manager = OpenManager(Path("data"), /*wal_threshold=*/2);
  GraphRegistry registry;
  registry.AttachStorage(manager.get());
  ASSERT_TRUE(registry.Add("g", base, "t").ok());

  DynamicGraph dyn(base);
  for (int b = 0; b < 5; ++b) {
    std::vector<UpdateOp> batch = {AddVertexOp(Attribute::kA)};
    UpdateSummary summary;
    ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
    ASSERT_TRUE(manager->AppendUpdate("g", summary, batch).ok());
    ASSERT_TRUE(
        registry.Replace("g", dyn.snapshot(), summary.version, &summary).ok());
  }
  storage::StorageCounters counters = manager->counters();
  EXPECT_GT(counters.compactions, 0u);

  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].version, 5u);
  EXPECT_EQ(recovered[0].fingerprint, dyn.fingerprint());
}

// -------------------------------------------------------------- warm file --

TEST_F(StorageTest, WarmFileRoundTripAndTamperRejection) {
  storage::WarmEntry w;
  w.key = "0123456789abcdef|k=2;d=1";
  w.fingerprint = 0x123456789abcdef0ull;
  w.clique.vertices = {4, 7, 9};
  w.clique.attr_counts[Attribute::kA] = 2;
  w.clique.attr_counts[Attribute::kB] = 1;
  w.has_params = true;
  w.params = {2, 1};
  ASSERT_TRUE(storage::SaveWarmFile(Path("warm"), {&w, 1}).ok());

  std::vector<storage::WarmEntry> loaded;
  ASSERT_TRUE(storage::LoadWarmFile(Path("warm"), &loaded).ok());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].key, w.key);
  EXPECT_EQ(loaded[0].fingerprint, w.fingerprint);
  EXPECT_EQ(loaded[0].clique.vertices, w.clique.vertices);
  EXPECT_EQ(loaded[0].params.k, 2);
  EXPECT_EQ(loaded[0].params.delta, 1);

  std::string bytes = ReadBytes(Path("warm"));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  WriteBytes(Path("warm"), bytes);
  EXPECT_TRUE(storage::LoadWarmFile(Path("warm"), &loaded).IsCorruption());
}

// ----------------------------------------------- end-to-end recovery proof --

/// The acceptance scenario: two graphs (one with an uncompacted WAL tail),
/// answers cached and persisted, SIGKILL-style teardown, then a restart
/// must serve byte-identical verifier-checked answers at the correct epochs
/// without searching.
TEST_F(StorageTest, RecoveryServesByteIdenticalVerifiedAnswers) {
  SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  AttributedGraph g1 = RandomAttributedGraph(60, 0.2, 71);
  AttributedGraph g2 = RandomAttributedGraph(50, 0.25, 72);

  std::vector<VertexId> witness1, witness2;
  uint64_t version1 = 0;
  {
    auto manager = OpenManager(Path("data"));
    GraphRegistry registry;
    ResultCache cache(64);
    registry.AttachCache(&cache);
    registry.AttachStorage(manager.get());
    QueryExecutor executor(ExecutorOptions{1, 16}, &cache);
    ASSERT_TRUE(registry.Add("updated", g1, "t1").ok());
    ASSERT_TRUE(registry.Add("static", g2, "t2").ok());

    // Three WAL-logged batches on "updated", left uncompacted.
    DynamicGraph dyn(g1);
    for (int b = 0; b < 3; ++b) {
      std::vector<UpdateOp> batch = {
          AddVertexOp(Attribute::kB),
          AddEdgeOp(static_cast<VertexId>(b), static_cast<VertexId>(b + 10))};
      UpdateSummary summary;
      ASSERT_TRUE(dyn.Apply(batch, &summary).ok());
      ASSERT_TRUE(manager->AppendUpdate("updated", summary, batch).ok());
      ASSERT_TRUE(
          registry.Replace("updated", dyn.snapshot(), summary.version,
                           &summary)
              .ok());
    }
    version1 = 3;

    for (const char* name : {"updated", "static"}) {
      QueryRequest request;
      request.graph = registry.Get(name);
      request.options = options;
      QueryResponse response = executor.Run(request);
      ASSERT_TRUE(response.status.ok() && response.result != nullptr);
      if (std::string(name) == "updated") {
        witness1 = response.result->clique.vertices;
      } else {
        witness2 = response.result->clique.vertices;
      }
    }
    ASSERT_FALSE(witness1.empty());
    ASSERT_FALSE(witness2.empty());
    ASSERT_TRUE(manager->SaveWarmEntries(cache.ExportWarmEntries()).ok());
    // SIGKILL: no drains, no handshakes — scope exit drops everything.
  }

  auto manager = OpenManager(Path("data"));
  std::vector<storage::RecoveredGraph> recovered;
  ASSERT_TRUE(manager->RecoverAll(&recovered).ok());
  ASSERT_EQ(recovered.size(), 2u);

  GraphRegistry registry;
  ResultCache cache(64);
  registry.AttachCache(&cache);
  QueryExecutor executor(ExecutorOptions{1, 16}, &cache);
  for (storage::RecoveredGraph& r : recovered) {
    ASSERT_TRUE(registry.Restore(r.name, r.graph, r.version, r.source).ok());
  }
  EXPECT_EQ(registry.Get("updated")->version, version1);
  EXPECT_EQ(registry.Get("static")->version, 0u);

  // Restore the warm file with the verifier gate; include one tampered
  // entry (out-of-range vertex) to prove the gate rejects it.
  std::vector<storage::WarmEntry> warm;
  ASSERT_TRUE(manager->LoadWarmEntries(&warm).ok());
  ASSERT_EQ(warm.size(), 2u);
  {
    storage::WarmEntry tampered = warm[0];
    tampered.clique.vertices.back() = 1u << 30;  // not a vertex of any graph
    warm.push_back(tampered);
  }
  WarmRestoreOutcome outcome =
      RestoreWarmEntries(registry, &cache, std::move(warm));
  EXPECT_EQ(outcome.restored, 2u);
  EXPECT_EQ(outcome.rejected, 1u);

  // Both graphs now serve the byte-identical witnesses, warm, verified.
  for (const char* name : {"updated", "static"}) {
    QueryRequest request;
    request.graph = registry.Get(name);
    request.options = options;
    QueryResponse response = executor.Run(request);
    ASSERT_TRUE(response.status.ok() && response.result != nullptr);
    EXPECT_TRUE(response.cache_hit) << name;
    const std::vector<VertexId>& expected =
        std::string(name) == "updated" ? witness1 : witness2;
    EXPECT_EQ(response.result->clique.vertices, expected) << name;
    EXPECT_TRUE(VerifyFairClique(*registry.Get(name)->graph,
                                 response.result->clique.vertices,
                                 options.params)
                    .ok())
        << name;
  }
}

// ------------------------------------------------- registry format sniffs --

TEST_F(StorageTest, RegistryAutoSniffsAllFormats) {
  AttributedGraph g = MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}, {0, 2}});

  ASSERT_TRUE(SaveFcg2(g, Path("g.fcg2")).ok());
  ASSERT_TRUE(SaveEdgeList(g, Path("g.txt")).ok());
  ASSERT_TRUE(SaveAttributes(g, Path("g.attrs")).ok());
  // METIS with the '%' comment convention the sniffer keys on.
  WriteBytes(Path("g.metis"),
             "% a METIS file\n4 4\n% adjacency, 1-based\n2 3\n1 3\n1 2 4\n3\n");

  // The retired FCG1 container is refused with a status, never misloaded.
  WriteBytes(Path("g.fcg1"), std::string("FCG1\x04\0\0\0\x04\0\0\0", 12));

  GraphRegistry registry;
  EXPECT_FALSE(registry.Load("fcg1", Path("g.fcg1")).ok());
  EXPECT_EQ(registry.Get("fcg1"), nullptr);
  ASSERT_TRUE(registry.Load("fcg2", Path("g.fcg2")).ok());
  ASSERT_TRUE(registry.Load("text", Path("g.txt"), Path("g.attrs")).ok());
  ASSERT_TRUE(registry.Load("metis", Path("g.metis")).ok());

  const uint64_t fp = GraphFingerprint(g);
  EXPECT_EQ(registry.Get("fcg2")->fingerprint, fp);
  EXPECT_EQ(registry.Get("text")->fingerprint, fp);
  // The METIS stand-in has the same edges but default attributes.
  EXPECT_EQ(EdgesOf(*registry.Get("metis")->graph), EdgesOf(g));

  // Explicit formats still work, and kMetis accepts an attribute file.
  ASSERT_TRUE(registry
                  .Load("metis_attrs", Path("g.metis"), Path("g.attrs"),
                        GraphFormat::kMetis)
                  .ok());
  EXPECT_EQ(registry.Get("metis_attrs")->fingerprint, fp);
}

TEST_F(StorageTest, SameContentUnderTwoNamesSharesOneCacheFingerprint) {
  AttributedGraph g = RandomAttributedGraph(40, 0.25, 91);
  ASSERT_TRUE(SaveFcg2(g, Path("g.fcg2")).ok());

  GraphRegistry registry;
  ResultCache cache(32);
  registry.AttachCache(&cache);
  QueryExecutor executor(ExecutorOptions{1, 16}, &cache);
  ASSERT_TRUE(registry.Load("first", Path("g.fcg2")).ok());
  ASSERT_TRUE(registry.Load("second", Path("g.fcg2")).ok());
  ASSERT_EQ(registry.Get("first")->fingerprint,
            registry.Get("second")->fingerprint);

  SearchOptions options = FullOptions(2, 1, ExtraBound::kColorfulPath);
  QueryRequest request;
  request.graph = registry.Get("first");
  request.options = options;
  QueryResponse cold = executor.Run(request);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);

  request.graph = registry.Get("second");
  QueryResponse warm = executor.Run(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);  // same fingerprint, same key, one entry
  EXPECT_EQ(warm.result->clique.vertices, cold.result->clique.vertices);

  // Evicting one name keeps the shared entry alive for the other.
  EXPECT_TRUE(registry.Evict("first"));
  request.graph = registry.Get("second");
  QueryResponse still_warm = executor.Run(request);
  EXPECT_TRUE(still_warm.cache_hit);
}

}  // namespace
}  // namespace fairclique
