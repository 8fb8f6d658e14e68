// Durability tests: record framing, fault-injected crash points, group
// commit, checkpoints and recovery (src/wal/). The fork/kill -9 harness
// against a live server lives in wal_crash_test.cc; everything here
// crashes in-process via WalFaultInjector, which models a dying machine
// precisely: the file contents stop exactly where the fault hit, and the
// tests then recover the directory and check the committed prefix.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/catalog.h"
#include "core/table.h"
#include "sql/engine.h"
#include "wal/db.h"
#include "wal/record.h"
#include "wal/wal.h"
#include "wal/wal_file.h"

namespace mammoth::wal {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/mammoth_wal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Path of the single segment file in dir_/wal (asserts there is one).
  std::string OnlySegment() {
    std::string found;
    size_t n = 0;
    for (const auto& e : fs::directory_iterator(WalSubdir(dir_))) {
      found = e.path().string();
      ++n;
    }
    EXPECT_EQ(n, 1u);
    return found;
  }

  std::string dir_;
};

const std::vector<ColumnDef> kSchema = {{"id", PhysType::kInt32},
                                        {"tag", PhysType::kStr},
                                        {"score", PhysType::kDouble}};

std::vector<std::vector<Value>> SomeRows(int base) {
  return {{Value::Int(base), Value::Str("tag_" + std::to_string(base)),
           Value::Real(base * 0.5)},
          {Value::Int(base + 1), Value::Str(""), Value::Real(-1.25)}};
}

// ------------------------------------------------------ record framing --

TEST(WalRecordTest, RoundTripsEveryRecordType) {
  auto begin = DecodeRecord(EncodeBegin(42));
  ASSERT_TRUE(begin.ok());
  EXPECT_EQ(begin->type, RecordType::kBegin);
  EXPECT_EQ(begin->txn_id, 42u);

  auto commit = DecodeRecord(EncodeCommit(43));
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->type, RecordType::kCommit);
  EXPECT_EQ(commit->txn_id, 43u);

  auto create = DecodeRecord(EncodeCreateTable("t", kSchema));
  ASSERT_TRUE(create.ok());
  EXPECT_EQ(create->type, RecordType::kCreateTable);
  EXPECT_EQ(create->table, "t");
  ASSERT_EQ(create->schema.size(), kSchema.size());
  for (size_t i = 0; i < kSchema.size(); ++i) {
    EXPECT_EQ(create->schema[i].name, kSchema[i].name);
    EXPECT_EQ(create->schema[i].type, kSchema[i].type);
  }

  const auto rows = SomeRows(7);
  auto insert = DecodeRecord(EncodeInsertRows("t", kSchema, rows));
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->type, RecordType::kInsertRows);
  ASSERT_EQ(insert->rows.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(insert->rows[r].size(), rows[r].size());
    for (size_t c = 0; c < rows[r].size(); ++c) {
      EXPECT_TRUE(insert->rows[r][c] == rows[r][c])
          << "row " << r << " col " << c;
    }
  }

  const BatPtr oids = MakeBat<Oid>({Oid{3}, Oid{0}, Oid{17}});
  auto del = DecodeRecord(EncodeDeletePositions("t", *oids));
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->type, RecordType::kDeletePositions);
  EXPECT_EQ(del->oids, (std::vector<Oid>{3, 0, 17}));

  auto upd = DecodeRecord(EncodeUpdateCells("t", kSchema, *oids, rows));
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->type, RecordType::kUpdateCells);
  EXPECT_EQ(upd->oids.size(), 3u);
  EXPECT_EQ(upd->rows.size(), rows.size());
}

TEST(WalRecordTest, DecodeRejectsGarbagePayload) {
  EXPECT_FALSE(DecodeRecord("").ok());
  EXPECT_FALSE(DecodeRecord("\xff").ok());  // unknown type tag
  // Truncated body after a valid type tag.
  std::string begin = EncodeBegin(1);
  EXPECT_FALSE(DecodeRecord(begin.substr(0, begin.size() - 1)).ok());
}

TEST(WalRecordTest, FrameStreamDistinguishesTornFromCorrupt) {
  std::string stream;
  AppendFrame(&stream, EncodeBegin(1));
  AppendFrame(&stream, EncodeInsertRows("t", kSchema, SomeRows(1)));
  AppendFrame(&stream, EncodeCommit(1));

  // Clean decode: every frame, LSNs chain through end_lsn.
  std::vector<Record> recs;
  size_t valid = 0;
  auto tail = DecodeFrames(stream, 100, true, &recs, &valid);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, TailState::kClean);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(valid, stream.size());
  EXPECT_EQ(recs[0].lsn, 100u);
  EXPECT_EQ(recs[1].lsn, recs[0].end_lsn);
  EXPECT_EQ(recs[2].lsn, recs[1].end_lsn);
  EXPECT_EQ(recs[2].end_lsn, 100 + stream.size());

  // A truncated final frame is a torn tail in the last segment...
  const std::string torn = stream.substr(0, stream.size() - 3);
  recs.clear();
  tail = DecodeFrames(torn, 100, true, &recs, &valid);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, TailState::kTorn);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(100 + valid, recs[1].end_lsn);

  // ...but mid-log corruption in any earlier segment.
  recs.clear();
  auto bad = DecodeFrames(torn, 100, false, &recs, &valid);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);

  // A CRC-failed frame with valid frames after it is corruption even in
  // the last segment: crashes tear tails, they don't flip middles.
  std::string flipped = stream;
  flipped[kFrameHeaderBytes + 2] ^= 0x40;  // inside the Begin payload
  recs.clear();
  bad = DecodeFrames(flipped, 0, true, &recs, &valid);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);

  // A CRC-failed *final* frame ending at EOF is a torn tail.
  std::string tail_flip = stream;
  tail_flip.back() ^= 0x01;
  recs.clear();
  tail = DecodeFrames(tail_flip, 0, true, &recs, &valid);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, TailState::kTorn);
  EXPECT_EQ(recs.size(), 2u);
}

// -------------------------------------------------- wal_file injection --

TEST_F(WalTest, WalFileLatchesInjectedFaults) {
  fs::create_directories(dir_);
  auto fault = std::make_shared<WalFaultInjector>();
  bool tear = false;
  fault->clamp_write = [&](size_t len) { return tear ? len / 2 : len; };

  auto file = WalFile::OpenAppend(dir_ + "/f.log", fault);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789").ok());
  EXPECT_EQ((*file)->size(), 10u);

  tear = true;
  const Status torn = (*file)->Append("abcdefgh");
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ((*file)->size(), 14u);  // half of the write landed
  // The failure latches: the file refuses everything afterwards, exactly
  // like a process that died mid-write.
  tear = false;
  EXPECT_FALSE((*file)->Append("more").ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_EQ(fs::file_size(dir_ + "/f.log"), 14u);

  auto fault2 = std::make_shared<WalFaultInjector>();
  fault2->fail_sync = [] { return true; };
  auto f2 = WalFile::OpenAppend(dir_ + "/g.log", fault2);
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE((*f2)->Append("x").ok());
  EXPECT_FALSE((*f2)->Sync().ok());
  EXPECT_FALSE((*f2)->Append("y").ok());  // latched
}

// ------------------------------------------------ append/recover basics --

TEST_F(WalTest, LogSyncRecoverRoundTrip) {
  WalOptions options;
  auto wal = Wal::Open(dir_, options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());

  for (int i = 0; i < 3; ++i) {
    TxnBuilder ins;
    ins.InsertRows("t", kSchema, SomeRows(i * 10));
    lsn = (*wal)->LogTransaction(ins.ops());
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  }
  const WalStats stats = (*wal)->stats();
  EXPECT_EQ(stats.txns_logged, 4u);
  EXPECT_EQ(stats.records_logged, 4u + 2 * 4u);  // Begin+op+Commit each
  EXPECT_EQ(stats.commits_synced, 4u);
  EXPECT_EQ(stats.durable_lsn, stats.next_lsn);
  EXPECT_GT(stats.bytes_logged, 0u);
  wal->reset();

  Catalog recovered;
  auto info = Recover(dir_, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txns_applied, 4u);
  EXPECT_EQ(info->txns_uncommitted, 0u);
  EXPECT_FALSE(info->torn_tail);
  EXPECT_EQ(info->resume.next_txn_id, 5u);
  auto t = recovered.Get("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->VisibleRowCount(), 6u);
  auto tags = (*t)->ScanColumn("tag");
  ASSERT_TRUE(tags.ok());
  EXPECT_EQ((*tags)->StringAt(0), "tag_0");

  // Idempotence: a second replay of the same directory is bit-identical.
  Catalog again;
  ASSERT_TRUE(Recover(dir_, &again).ok());
  EXPECT_TRUE(CompareCatalogs(recovered, again).ok());
}

TEST_F(WalTest, ReopenedLogContinuesWhereRecoveryLeftOff) {
  WalOptions options;
  {
    auto wal = Wal::Open(dir_, options);
    ASSERT_TRUE(wal.ok());
    TxnBuilder txn;
    txn.CreateTable("t", kSchema);
    auto lsn = (*wal)->LogTransaction(txn.ops());
    ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  }
  Catalog cat;
  auto info = Recover(dir_, &cat);
  ASSERT_TRUE(info.ok());
  {
    auto wal = Wal::Open(dir_, options, info->resume);
    ASSERT_TRUE(wal.ok());
    TxnBuilder txn;
    txn.InsertRows("t", kSchema, SomeRows(5));
    auto lsn = (*wal)->LogTransaction(txn.ops());
    ASSERT_TRUE((*wal)->Sync(*lsn).ok());
    // Resuming must not re-create a segment: the tail file is reused.
    EXPECT_EQ((*wal)->stats().segments_created, 0u);
  }
  Catalog cat2;
  info = Recover(dir_, &cat2);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txns_applied, 2u);
  auto t = cat2.Get("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->VisibleRowCount(), 2u);
}

// ----------------------------------------------------- crash-point ends --

TEST_F(WalTest, TornWriteLosesOnlyTheTornTransaction) {
  auto fault = std::make_shared<WalFaultInjector>();
  bool armed = false;
  fault->clamp_write = [&](size_t len) {
    return armed && len > 5 ? len - 5 : len;
  };
  WalOptions options;
  options.fault = fault;
  auto wal = Wal::Open(dir_, options);
  ASSERT_TRUE(wal.ok());

  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  for (int i = 0; i < 2; ++i) {
    TxnBuilder ins;
    ins.InsertRows("t", kSchema, SomeRows(i));
    lsn = (*wal)->LogTransaction(ins.ops());
    ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  }

  armed = true;  // the next physical write loses its last 5 bytes
  TxnBuilder doomed;
  doomed.InsertRows("t", kSchema, SomeRows(99));
  lsn = (*wal)->LogTransaction(doomed.ops());
  ASSERT_TRUE(lsn.ok());  // buffering can't fail
  EXPECT_FALSE((*wal)->Sync(*lsn).ok());
  // Poisoned: later commits are refused instead of pretending durability.
  TxnBuilder after;
  after.InsertRows("t", kSchema, SomeRows(100));
  EXPECT_FALSE((*wal)->LogTransaction(after.ops()).ok());
  wal->reset();

  Catalog recovered;
  auto info = Recover(dir_, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->torn_tail);
  EXPECT_EQ(info->txns_applied, 3u);  // create + 2 acked inserts
  auto t = recovered.Get("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->VisibleRowCount(), 4u);

  // Reopening truncates the torn bytes; new commits append cleanly and a
  // later recovery sees no corruption.
  auto wal2 = Wal::Open(dir_, WalOptions{}, info->resume);
  ASSERT_TRUE(wal2.ok());
  TxnBuilder more;
  more.InsertRows("t", kSchema, SomeRows(7));
  lsn = (*wal2)->LogTransaction(more.ops());
  ASSERT_TRUE((*wal2)->Sync(*lsn).ok());
  wal2->reset();

  Catalog cat2;
  info = Recover(dir_, &cat2);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info->torn_tail);
  EXPECT_EQ(info->txns_applied, 4u);
}

TEST_F(WalTest, FailedFsyncPoisonsTheLog) {
  auto fault = std::make_shared<WalFaultInjector>();
  std::atomic<bool> dying{false};
  fault->fail_sync = [&] { return dying.load(); };
  WalOptions options;
  options.fault = fault;
  auto wal = Wal::Open(dir_, options);
  ASSERT_TRUE(wal.ok());

  TxnBuilder ok_txn;
  ok_txn.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(ok_txn.ops());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());

  dying = true;
  TxnBuilder doomed;
  doomed.InsertRows("t", kSchema, SomeRows(1));
  lsn = (*wal)->LogTransaction(doomed.ops());
  const Status failed = (*wal)->Sync(*lsn);
  ASSERT_FALSE(failed.ok());
  // Every later commit reports the original failure.
  TxnBuilder after;
  after.InsertRows("t", kSchema, SomeRows(2));
  auto refused = (*wal)->LogTransaction(after.ops());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().ToString(), failed.ToString());
  wal->reset();

  // The un-fsynced transaction's bytes may or may not have reached the
  // disk image (here they did: the write itself succeeded). Recovery
  // accepts either ending — the guarantee is about *acked* commits.
  Catalog recovered;
  auto info = Recover(dir_, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_GE(info->txns_applied, 1u);
  EXPECT_TRUE(recovered.Contains("t"));
}

TEST_F(WalTest, SilentTailCorruptionDropsTheLastTransaction) {
  auto fault = std::make_shared<WalFaultInjector>();
  bool armed = false;
  fault->mutate_write = [&](std::string* bytes) {
    if (armed && !bytes->empty()) bytes->back() ^= 0x01;
  };
  WalOptions options;
  options.fault = fault;
  auto wal = Wal::Open(dir_, options);
  ASSERT_TRUE(wal.ok());

  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());

  armed = true;  // flip one bit of the next write's final byte
  TxnBuilder ins;
  ins.InsertRows("t", kSchema, SomeRows(1));
  lsn = (*wal)->LogTransaction(ins.ops());
  // Silent corruption: the write and fsync "succeed", the commit is
  // acked — the loss is only discoverable at recovery (CRC).
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  wal->reset();

  Catalog recovered;
  auto info = Recover(dir_, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->torn_tail);
  EXPECT_EQ(info->txns_applied, 1u);  // the corrupted tail txn is gone
}

TEST_F(WalTest, MidLogCorruptionIsATypedError) {
  auto wal = Wal::Open(dir_, WalOptions{});
  ASSERT_TRUE(wal.ok());
  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  for (int i = 0; i < 3; ++i) {
    TxnBuilder ins;
    ins.InsertRows("t", kSchema, SomeRows(i));
    lsn = (*wal)->LogTransaction(ins.ops());
    ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  }
  wal->reset();

  // Flip a byte inside the *first* frame: valid records follow, so this
  // is not a crash artefact and must be surfaced, not skipped.
  const std::string segment = OnlySegment();
  {
    std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(kSegmentHeaderBytes + 10));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(kSegmentHeaderBytes + 10));
    f.put(static_cast<char>(c ^ 0x20));
  }
  Catalog cat;
  auto info = Recover(dir_, &cat);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, TrailingUncommittedRecordsAreIgnoredAndTruncated) {
  auto wal = Wal::Open(dir_, WalOptions{});
  ASSERT_TRUE(wal.ok());
  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  wal->reset();

  // Hand-append a Begin with no Commit — the disk image of a process
  // that died between buffering and becoming durable.
  const std::string segment = OnlySegment();
  std::string dangling;
  AppendFrame(&dangling, EncodeBegin(999));
  {
    std::ofstream f(segment, std::ios::app | std::ios::binary);
    f.write(dangling.data(), static_cast<std::streamsize>(dangling.size()));
  }

  Catalog cat;
  auto info = Recover(dir_, &cat);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txns_applied, 1u);
  EXPECT_EQ(info->txns_uncommitted, 1u);
  EXPECT_FALSE(info->torn_tail);  // the frames themselves are whole

  // Reopening truncates the dangling Begin, so appending a fresh
  // transaction cannot produce a nested-Begin stream.
  auto wal2 = Wal::Open(dir_, WalOptions{}, info->resume);
  ASSERT_TRUE(wal2.ok());
  TxnBuilder ins;
  ins.InsertRows("t", kSchema, SomeRows(1));
  lsn = (*wal2)->LogTransaction(ins.ops());
  ASSERT_TRUE((*wal2)->Sync(*lsn).ok());
  wal2->reset();

  Catalog cat2;
  info = Recover(dir_, &cat2);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txns_applied, 2u);
  EXPECT_EQ(info->txns_uncommitted, 0u);
}

// -------------------------------------------------------- group commit --

TEST_F(WalTest, GroupCommitBatchesConcurrentFsyncs) {
  auto fault = std::make_shared<WalFaultInjector>();
  // Hold each fsync long enough for other committers to pile up behind
  // the leader — the batching this mode exists for.
  fault->before_sync = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  WalOptions options;
  options.fault = fault;
  auto wal = Wal::Open(dir_, options);
  ASSERT_TRUE(wal.ok());

  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kTxnsPerThread; ++j) {
        TxnBuilder ins;
        ins.InsertRows(
            "t", kSchema,
            {{Value::Int(t * 1000 + j), Value::Str("w"), Value::Real(0)}});
        auto commit_lsn = (*wal)->LogTransaction(ins.ops());
        if (!commit_lsn.ok() || !(*wal)->Sync(*commit_lsn).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const WalStats stats = (*wal)->stats();
  EXPECT_EQ(stats.txns_logged, 1u + kThreads * kTxnsPerThread);
  EXPECT_EQ(stats.commits_synced, 1u + kThreads * kTxnsPerThread);
  // The headline number: far fewer physical fsyncs than commits.
  EXPECT_LT(stats.fsyncs, stats.commits_synced);
  wal->reset();

  Catalog recovered;
  auto info = Recover(dir_, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txns_applied, 1u + kThreads * kTxnsPerThread);
  auto t = recovered.Get("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->VisibleRowCount(),
            static_cast<size_t>(kThreads * kTxnsPerThread));
}

TEST_F(WalTest, GroupCommitOffForcesAnFsyncPerCommit) {
  WalOptions options;
  options.group_commit = false;
  auto wal = Wal::Open(dir_, options);
  ASSERT_TRUE(wal.ok());

  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 10;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kTxnsPerThread; ++j) {
        TxnBuilder ins;
        ins.InsertRows(
            "t", kSchema,
            {{Value::Int(t * 1000 + j), Value::Str("w"), Value::Real(0)}});
        auto commit_lsn = (*wal)->LogTransaction(ins.ops());
        if (!commit_lsn.ok() || !(*wal)->Sync(*commit_lsn).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const WalStats stats = (*wal)->stats();
  // Every committer paid (at least) one fsync of its own.
  EXPECT_GE(stats.fsyncs, stats.commits_synced);
}

// ---------------------------------------------------- segment rotation --

/// Regression: a crash during Sync()'s segment rotation leaves the fresh
/// segment file with a torn 16-byte header (the only write it ever got).
/// Recovery used to reject the whole directory as corrupt; a torn header
/// on the *final* segment is a crash artefact and must be dropped like a
/// torn record tail — every acked commit lives in the earlier segments.
TEST_F(WalTest, TornSegmentHeaderAtRotationIsACrashArtifact) {
  auto fault = std::make_shared<WalFaultInjector>();
  std::atomic<int> headers{0};
  fault->clamp_write = [&](size_t len) -> size_t {
    // Segment headers are the only exactly-16-byte appends (every
    // transaction is three frames). Tear the third one: the header of
    // the segment the second rotation creates.
    if (len == kSegmentHeaderBytes && ++headers >= 3) return 7;
    return len;
  };
  WalOptions options;
  options.fault = fault;
  options.segment_bytes = 1;  // every commit crosses the rotation trigger
  auto wal = Wal::Open(dir_, options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  // Commit 1: lands in segment 1, rotation creates segment 2 cleanly.
  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());

  // Commit 2: its bytes reach segment 2 and are fsynced, but the
  // rotation afterwards tears segment 3's header — the Sync fails, so
  // this commit is durable on disk yet never acked.
  TxnBuilder ins;
  ins.InsertRows("t", kSchema, SomeRows(1));
  lsn = (*wal)->LogTransaction(ins.ops());
  ASSERT_TRUE(lsn.ok());
  EXPECT_FALSE((*wal)->Sync(*lsn).ok());
  wal->reset();

  size_t segments = 0;
  for (const auto& e : fs::directory_iterator(WalSubdir(dir_))) {
    (void)e;
    ++segments;
  }
  EXPECT_EQ(segments, 3u);  // the torn-header file exists on disk

  // Recovery succeeds, applies both whole transactions, and deletes the
  // torn-header segment so a reopened WAL starts from a clean tail.
  Catalog recovered;
  auto info = Recover(dir_, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txns_applied, 2u);
  auto t = recovered.Get("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->VisibleRowCount(), 2u);
  segments = 0;
  for (const auto& e : fs::directory_iterator(WalSubdir(dir_))) {
    (void)e;
    ++segments;
  }
  EXPECT_EQ(segments, 2u);

  // The directory stays writable: resume, commit, recover again.
  auto wal2 = Wal::Open(dir_, WalOptions{}, info->resume);
  ASSERT_TRUE(wal2.ok()) << wal2.status().ToString();
  TxnBuilder more;
  more.InsertRows("t", kSchema, SomeRows(5));
  lsn = (*wal2)->LogTransaction(more.ops());
  ASSERT_TRUE((*wal2)->Sync(*lsn).ok());
  wal2->reset();
  Catalog again;
  info = Recover(dir_, &again);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txns_applied, 3u);
}

/// Rotation under concurrent group commit: with segments barely bigger
/// than one transaction, every leader round rotates while followers are
/// parked on the condition variable. No acked commit may be lost and no
/// Sync may fail — the race this guards is a follower whose LSN lands in
/// the fresh segment while the leader is still swapping files.
TEST_F(WalTest, GroupCommitRotationRaceLosesNoAckedCommit) {
  auto fault = std::make_shared<WalFaultInjector>();
  // Hold each fsync briefly so followers pile up behind the leader and
  // rotation happens with a non-empty wait queue.
  fault->before_sync = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  };
  WalOptions options;
  options.fault = fault;
  options.segment_bytes = 512;  // a handful of commits per segment
  auto wal = Wal::Open(dir_, options);
  ASSERT_TRUE(wal.ok());

  TxnBuilder create;
  create.CreateTable("t", kSchema);
  auto lsn = (*wal)->LogTransaction(create.ops());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kTxnsPerThread; ++j) {
        TxnBuilder ins;
        ins.InsertRows(
            "t", kSchema,
            {{Value::Int(t * 1000 + j), Value::Str("w"), Value::Real(0)}});
        auto commit_lsn = (*wal)->LogTransaction(ins.ops());
        if (!commit_lsn.ok() || !(*wal)->Sync(*commit_lsn).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const WalStats stats = (*wal)->stats();
  EXPECT_GT(stats.segments_created, 4u);  // rotation genuinely happened
  wal->reset();

  Catalog recovered;
  auto info = Recover(dir_, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txns_applied, 1u + kThreads * kTxnsPerThread);
  auto t = recovered.Get("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->VisibleRowCount(),
            static_cast<size_t>(kThreads * kTxnsPerThread));
}

// --------------------------------------------------------- checkpoints --

TEST_F(WalTest, CheckpointTruncatesLogAndSurvivesRestart) {
  sql::Engine engine;
  auto db = OpenDatabase(dir_, &engine);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE t (id INT, tag VARCHAR(16))").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ", 'a')")
                    .ok());
  }
  ASSERT_TRUE(engine.Execute("DELETE FROM t WHERE id = 3").ok());

  // A parsed statement: case-insensitive, ';' optional, but one word.
  EXPECT_FALSE(engine.Execute("CHECK POINT").ok());
  auto cp = engine.Execute("  checkpoint  ");
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  ASSERT_EQ(cp->names.size(), 1u);
  EXPECT_EQ(cp->names[0], "checkpoint_lsn");
  auto again = engine.Execute("CHECKPOINT;");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  const WalStats stats = db->wal->stats();
  EXPECT_EQ(stats.checkpoints, 2u);
  EXPECT_GT(stats.checkpoint_lsn, 0u);
  // The log was rotated and pre-checkpoint segments deleted.
  EXPECT_EQ(OnlySegment(),
            WalSubdir(dir_) + "/" + SegmentFileName(stats.checkpoint_lsn));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "CURRENT"));
  EXPECT_TRUE(
      fs::exists(fs::path(dir_) / SnapshotDirName(stats.checkpoint_lsn)));

  // Post-checkpoint traffic lands in the fresh segment.
  for (int i = 10; i < 13; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ", 'b')")
                    .ok());
  }
  db->wal.reset();

  sql::Engine reopened;
  auto db2 = OpenDatabase(dir_, &reopened);
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_FALSE(db2->info.snapshot_dir.empty());
  EXPECT_EQ(db2->info.txns_applied, 3u);  // only the post-checkpoint inserts
  EXPECT_TRUE(CompareCatalogs(*engine.catalog(), *reopened.catalog()).ok());
}

TEST_F(WalTest, LogSizeTriggerCheckpointsAutomatically) {
  sql::Engine engine;
  DbOptions options;
  options.wal.checkpoint_log_bytes = 1;  // every commit crosses the trigger
  auto db = OpenDatabase(dir_, &engine, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (x INT)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        engine.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")")
            .ok());
  }
  EXPECT_GE(db->wal->stats().checkpoints, 3u);
  db->wal.reset();

  sql::Engine reopened;
  auto db2 = OpenDatabase(dir_, &reopened);
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_TRUE(CompareCatalogs(*engine.catalog(), *reopened.catalog()).ok());
}

TEST(WalEngineTest, CheckpointWithoutWalIsAnError) {
  sql::Engine engine;
  EXPECT_FALSE(engine.Execute("CHECKPOINT").ok());
}

// ------------------------------------------------- engine-level replay --

TEST_F(WalTest, EngineRoundTripCoversEveryStatementKind) {
  sql::Engine engine;
  auto db = OpenDatabase(dir_, &engine);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(engine
                  .ExecuteScript(
                      "CREATE TABLE t (id INT, tag VARCHAR(16), score "
                      "DOUBLE);"
                      "INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', "
                      "2.5), (3, 'three', 3.5);"
                      "UPDATE t SET score = 9.0 WHERE id = 2;"
                      "DELETE FROM t WHERE id = 1;"
                      "CREATE TABLE empty_t (x INT);")
                  .ok());
  // A no-effect statement must not log a transaction.
  const uint64_t logged_before = db->wal->stats().txns_logged;
  ASSERT_TRUE(engine.Execute("DELETE FROM t WHERE id = 12345").ok());
  EXPECT_EQ(db->wal->stats().txns_logged, logged_before);
  db->wal.reset();

  sql::Engine reopened;
  auto db2 = OpenDatabase(dir_, &reopened);
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_TRUE(CompareCatalogs(*engine.catalog(), *reopened.catalog()).ok());
  auto r = reopened.Execute("SELECT tag, score FROM t WHERE id = 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->RowCount(), 1u);
  EXPECT_EQ(r->columns[0]->StringAt(0), "two");
  EXPECT_DOUBLE_EQ(r->columns[1]->ValueAt<double>(0), 9.0);
}

/// The randomized crash harness: run a deterministic workload against a
/// database whose WAL dies after a pseudo-random number of bytes, then
/// recover and require that the surviving state is (a) exactly some
/// prefix of the executed statements, (b) a prefix covering every acked
/// statement, and (c) stable under double recovery. Odd seeds crash with
/// checkpointing and segment rotation in play.
TEST_F(WalTest, RandomizedCrashPointsRecoverTheCommittedPrefix) {
  const std::vector<std::string> stmts = [] {
    std::vector<std::string> s;
    s.push_back("CREATE TABLE t (id INT, tag VARCHAR(16), score DOUBLE)");
    for (int i = 1; i < 40; ++i) {
      if (i % 5 == 3) {
        s.push_back("DELETE FROM t WHERE id = " + std::to_string(i - 1));
      } else if (i % 7 == 4) {
        s.push_back("UPDATE t SET score = " + std::to_string(i) +
                    ".0 WHERE id >= 0");
      } else {
        s.push_back("INSERT INTO t VALUES (" + std::to_string(i) + ", 'g" +
                    std::to_string(i) + "', " + std::to_string(i) + ".5)");
      }
    }
    return s;
  }();

  // Deterministic: the seed set is fixed (CI can widen the matrix via
  // MAMMOTH_CRASH_SEEDS without touching the code).
  uint64_t nseeds = 8;
  if (const char* env = std::getenv("MAMMOTH_CRASH_SEEDS")) {
    nseeds = std::strtoull(env, nullptr, 10);
  }
  for (uint64_t seed = 1; seed <= nseeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = dir_ + "/crash_" + std::to_string(seed);
    fs::remove_all(dir);

    Rng rng(seed * 7919);
    auto remaining = std::make_shared<int64_t>(
        static_cast<int64_t>(200 + rng.Uniform(4000)));
    auto fault = std::make_shared<WalFaultInjector>();
    fault->clamp_write = [remaining](size_t len) -> size_t {
      if (*remaining >= static_cast<int64_t>(len)) {
        *remaining -= static_cast<int64_t>(len);
        return len;
      }
      const size_t landed = static_cast<size_t>(std::max<int64_t>(
          *remaining, 0));
      *remaining = 0;  // after the crash point nothing ever lands again
      return landed;
    };

    DbOptions options;
    options.wal.fault = fault;
    if (seed % 2 == 1) {
      options.wal.checkpoint_log_bytes = 1500;
      options.wal.segment_bytes = 1024;  // exercise rotation too
    }

    sql::Engine engine;
    auto db = OpenDatabase(dir, &engine, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    size_t acked = 0;
    for (const auto& stmt : stmts) {
      if (!engine.Execute(stmt).ok()) break;  // crashed: poison from here
      ++acked;
    }
    db->wal.reset();

    Catalog rec1, rec2;
    auto info1 = Recover(dir, &rec1);
    ASSERT_TRUE(info1.ok()) << info1.status().ToString();
    auto info2 = Recover(dir, &rec2);
    ASSERT_TRUE(info2.ok());
    EXPECT_TRUE(CompareCatalogs(rec1, rec2).ok());

    // Find the longest executed prefix matching the recovered image.
    sql::Engine ref;
    bool matched = false;
    size_t prefix = 0;
    for (size_t k = 0; k <= stmts.size(); ++k) {
      if (k > 0) ASSERT_TRUE(ref.Execute(stmts[k - 1]).ok());
      if (CompareCatalogs(*ref.catalog(), rec1).ok()) {
        matched = true;
        prefix = k;
      }
    }
    EXPECT_TRUE(matched) << "recovered state matches no executed prefix";
    EXPECT_GE(prefix, acked) << "an acknowledged statement was lost";
    fs::remove_all(dir);
  }
}

/// Compressed storage is durable: ALTER TABLE COMPRESS replays from the
/// log, survives a checkpoint round-trip (the snapshot persists the
/// compressed column images), and post-compress DML lands correctly in
/// both paths.
TEST_F(WalTest, CompressedTablesSurviveReplayAndCheckpoint) {
  sql::Engine engine;
  auto db = OpenDatabase(dir_, &engine);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(engine.Execute("CREATE TABLE c (id INT, v INT)").ok());
  std::string ins = "INSERT INTO c VALUES ";
  for (int i = 0; i < 400; ++i) {
    if (i > 0) ins += ", ";
    ins += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  ASSERT_TRUE(engine.Execute(ins).ok());
  ASSERT_TRUE(engine.Execute("ALTER TABLE c COMPRESS").ok());
  // DML on top of compressed mains, still WAL-logged.
  ASSERT_TRUE(engine.Execute("INSERT INTO c VALUES (1000, 3)").ok());
  ASSERT_TRUE(engine.Execute("DELETE FROM c WHERE id = 5").ok());
  {
    auto t = engine.catalog()->Get("c");
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE((*t)->compression_enabled());
    EXPECT_EQ((*t)->CompressedColumnCount(), 2u);
  }
  db->wal.reset();

  // Pure log replay (no checkpoint yet).
  sql::Engine replayed;
  auto db2 = OpenDatabase(dir_, &replayed);
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_TRUE(CompareCatalogs(*engine.catalog(), *replayed.catalog()).ok());
  {
    auto t = replayed.catalog()->Get("c");
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE((*t)->compression_enabled());
    EXPECT_EQ((*t)->CompressedColumnCount(), 2u);
    EXPECT_GT((*t)->CompressedBytesTotal(), 0u);
  }

  // Checkpoint: the snapshot must persist the compressed images and the
  // policy, and recovery must come back through Table::FromStorage.
  ASSERT_TRUE(replayed.Execute("CHECKPOINT").ok());
  ASSERT_TRUE(replayed.Execute("INSERT INTO c VALUES (1001, 4)").ok());
  db2->wal.reset();

  sql::Engine reopened;
  auto db3 = OpenDatabase(dir_, &reopened);
  ASSERT_TRUE(db3.ok()) << db3.status().ToString();
  EXPECT_FALSE(db3->info.snapshot_dir.empty());
  EXPECT_TRUE(
      CompareCatalogs(*replayed.catalog(), *reopened.catalog()).ok());
  {
    auto t = reopened.catalog()->Get("c");
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE((*t)->compression_enabled());
    EXPECT_EQ((*t)->CompressedColumnCount(), 2u);
  }
  auto want = replayed.Execute("SELECT id, v FROM c WHERE v >= 2 AND v <= 5");
  auto got = reopened.Execute("SELECT id, v FROM c WHERE v >= 2 AND v <= 5");
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->ToText(1 << 20), want->ToText(1 << 20));

  // DECOMPRESS is durable too.
  ASSERT_TRUE(reopened.Execute("ALTER TABLE c DECOMPRESS").ok());
  db3->wal.reset();
  sql::Engine plain_again;
  auto db4 = OpenDatabase(dir_, &plain_again);
  ASSERT_TRUE(db4.ok()) << db4.status().ToString();
  auto t = plain_again.catalog()->Get("c");
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE((*t)->compression_enabled());
  EXPECT_EQ((*t)->CompressedColumnCount(), 0u);
}

// ------------------------------------------------- statement atomicity --

TEST(WalEngineTest, FailingMultiRowInsertLeavesNoTrace) {
  sql::Engine engine;
  ASSERT_TRUE(
      engine
          .ExecuteScript("CREATE TABLE t (x INT, s VARCHAR(8));"
                         "INSERT INTO t VALUES (1, 'a')")
          .ok());
  auto t = engine.catalog()->Get("t");
  ASSERT_TRUE(t.ok());
  const uint64_t version = (*t)->version();
  const size_t visible = (*t)->VisibleRowCount();
  const size_t pending = (*t)->PendingInsertCount();

  // Row 2 fails the type check after row 1 already appended: the
  // statement must roll its partial effect back.
  EXPECT_FALSE(
      engine.Execute("INSERT INTO t VALUES (2, 'b'), ('oops', 3), (4, 'd')")
          .ok());
  EXPECT_EQ((*t)->version(), version);
  EXPECT_EQ((*t)->VisibleRowCount(), visible);
  EXPECT_EQ((*t)->PendingInsertCount(), pending);
  auto r = engine.Execute("SELECT x FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->RowCount(), 1u);
}

TEST(WalEngineTest, TableRollbackRestoresInsertAndDeleteDeltas) {
  auto created = Table::Create("t", {{"x", PhysType::kInt64}});
  ASSERT_TRUE(created.ok());
  TablePtr t = *created;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t->Insert({Value::Int(i)}).ok());
  }
  const Table::DeltaMark mark = t->Mark();
  const uint64_t version = t->version();

  ASSERT_TRUE(t->Insert({Value::Int(100)}).ok());
  ASSERT_TRUE(t->Insert({Value::Int(101)}).ok());
  ASSERT_TRUE(t->Delete(MakeBat<Oid>({Oid{0}, Oid{2}})).ok());
  EXPECT_EQ(t->VisibleRowCount(), 4u);
  EXPECT_EQ(t->DeletedCount(), 2u);

  t->Rollback(mark);
  EXPECT_EQ(t->VisibleRowCount(), 4u);
  EXPECT_EQ(t->PendingInsertCount(), 4u);
  EXPECT_EQ(t->DeletedCount(), 0u);
  EXPECT_EQ(t->version(), version);
  auto col = t->ScanColumn("x");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->ValueAt<int64_t>(3), 3);
}

}  // namespace
}  // namespace mammoth::wal
