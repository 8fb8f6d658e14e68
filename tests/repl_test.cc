// Replication tests: the repl wire codecs (round trips and hostile
// inputs — truncation and CRC mutation are typed errors, never crashes),
// and in-process primary/replica pairs: WAL shipping end to end, lag
// draining to zero, bit-identical SELECTs, read-only enforcement for
// every write shape, snapshot bootstrap past a checkpoint, and PROMOTE
// turning a replica into a (durable) writable primary. The fork-based
// kill -9 failover harness lives in repl_failover_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/table.h"
#include "repl/repl_wire.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/engine.h"
#include "wal/db.h"
#include "wal/record.h"

namespace mammoth::repl {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------- wire codecs --

TEST(ReplWireTest, SubscribeAndAckRoundTrip) {
  auto sub = DecodeSubscribe(EncodeSubscribe({12345}));
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->start_lsn, 12345u);

  auto ack = DecodeAck(EncodeAck({987654321}));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->replayed_lsn, 987654321u);
}

TEST(ReplWireTest, RecordsBatchRoundTrip) {
  std::string frames;
  wal::AppendFrame(&frames, wal::EncodeBegin(7));
  wal::AppendFrame(&frames, wal::EncodeCommit(7));
  const std::string payload = EncodeRecords(4096, 8192, frames);
  auto batch = DecodeRecords(payload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->base_lsn, 4096u);
  EXPECT_EQ(batch->source_durable_lsn, 8192u);
  EXPECT_EQ(batch->bytes, frames);

  // An empty batch is a legal heartbeat.
  const std::string heartbeat = EncodeRecords(100, 200, "");
  auto hb = DecodeRecords(heartbeat);
  ASSERT_TRUE(hb.ok());
  EXPECT_TRUE(hb->bytes.empty());
}

TEST(ReplWireTest, SnapshotFramesRoundTrip) {
  auto begin = DecodeSnapBegin(EncodeSnapBegin({777, 42, 3}));
  ASSERT_TRUE(begin.ok());
  EXPECT_EQ(begin->snapshot_lsn, 777u);
  EXPECT_EQ(begin->next_txn_id, 42u);
  EXPECT_EQ(begin->nfiles, 3u);

  // FileChunk decodes to zero-copy views: the payload must outlive them.
  const std::string payload =
      EncodeFileChunk("cols/t.id.bin", 8192, true, "payload-bytes");
  auto chunk = DecodeFileChunk(payload);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->name, "cols/t.id.bin");
  EXPECT_EQ(chunk->offset, 8192u);
  EXPECT_EQ(chunk->last, 1u);
  EXPECT_EQ(chunk->data, "payload-bytes");

  auto end = DecodeSnapEnd(EncodeSnapEnd({777}));
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->snapshot_lsn, 777u);
}

/// Hostility: every decoder rejects a truncated payload with a typed
/// error instead of reading out of bounds. Fixed-shape codecs reject
/// every strict prefix and any trailing garbage; the two codecs with a
/// variable byte tail (Records, FileChunk) reject every cut inside
/// their fixed header.
TEST(ReplWireTest, DecodersRejectTruncatedAndOversizedPayloads) {
  struct Probe {
    std::string valid;
    size_t header;  ///< bytes of fixed header (== valid.size(): no tail)
    std::function<Status(std::string_view)> decode;
  };
  const std::string chunk = EncodeFileChunk("f", 0, false, "xyz");
  const std::vector<Probe> codecs = {
      {EncodeSubscribe({1}), 8,
       [](std::string_view p) { return DecodeSubscribe(p).status(); }},
      {EncodeAck({2}), 8,
       [](std::string_view p) { return DecodeAck(p).status(); }},
      {EncodeRecords(1, 2, "abc"), 16,
       [](std::string_view p) { return DecodeRecords(p).status(); }},
      {EncodeSnapBegin({1, 2, 3}), 20,
       [](std::string_view p) { return DecodeSnapBegin(p).status(); }},
      {chunk, chunk.size() - 3,
       [](std::string_view p) { return DecodeFileChunk(p).status(); }},
      {EncodeSnapEnd({9}), 8,
       [](std::string_view p) { return DecodeSnapEnd(p).status(); }},
  };
  for (size_t c = 0; c < codecs.size(); ++c) {
    const auto& [valid, header, decode] = codecs[c];
    ASSERT_TRUE(decode(valid).ok()) << "codec " << c;
    for (size_t cut = 0; cut < header; ++cut) {
      const Status st = decode(std::string_view(valid).substr(0, cut));
      EXPECT_FALSE(st.ok()) << "codec " << c << " accepted a " << cut
                            << "-byte prefix";
    }
    if (header == valid.size()) {  // fixed shape: no byte tail to hide in
      EXPECT_FALSE(decode(valid + "x").ok())
          << "codec " << c << " accepted trailing garbage";
    }
  }
}

/// A shipped file name is a path *inside* the snapshot inbox: absolute
/// paths and `..` components would let a hostile primary write anywhere
/// on the replica's disk.
TEST(ReplWireTest, FileChunkRejectsPathTraversal) {
  for (const char* evil :
       {"../evil", "a/../../evil", "/etc/passwd", "a/./../b", ".."}) {
    auto chunk = DecodeFileChunk(EncodeFileChunk(evil, 0, true, "x"));
    EXPECT_FALSE(chunk.ok()) << evil;
  }
  // Benign relative paths (including dots in file names) stay legal.
  for (const char* fine : {"snap/cols.bin", "t.id.bin", "a/b/c"}) {
    EXPECT_TRUE(DecodeFileChunk(EncodeFileChunk(fine, 0, true, "x")).ok())
        << fine;
  }
}

TEST(ReplWireTest, ShippedBatchVerifiesCrcAndAlignment) {
  std::string f1, f2, f3;
  wal::AppendFrame(&f1, wal::EncodeBegin(3));
  wal::AppendFrame(&f2, wal::EncodeCreateTable("t", {{"x", PhysType::kInt64}}));
  wal::AppendFrame(&f3, wal::EncodeCommit(3));
  const std::string frames = f1 + f2 + f3;

  auto records = DecodeShippedBatch(frames, 500);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].lsn, 500u);
  EXPECT_EQ((*records)[2].end_lsn, 500 + frames.size());

  // Unlike a recovered tail segment, a shipped batch has no licence to
  // be torn: the primary only ships whole frames, so any cut NOT on a
  // frame boundary is typed corruption.
  const std::vector<size_t> boundaries = {0, f1.size(), f1.size() + f2.size(),
                                          frames.size()};
  for (size_t keep = 1; keep < frames.size(); keep += 3) {
    if (std::find(boundaries.begin(), boundaries.end(), keep) !=
        boundaries.end()) {
      continue;  // a boundary cut is a legal (shorter) batch
    }
    auto torn =
        DecodeShippedBatch(std::string_view(frames).substr(0, keep), 500);
    EXPECT_FALSE(torn.ok()) << "keep " << keep;
    EXPECT_EQ(torn.status().code(), StatusCode::kCorruption)
        << "keep " << keep;
  }

  // A flipped bit anywhere fails some frame's CRC.
  for (size_t at : {size_t{9}, frames.size() / 2, frames.size() - 1}) {
    std::string mutated = frames;
    mutated[at] ^= 0x10;
    auto bad = DecodeShippedBatch(mutated, 0);
    EXPECT_FALSE(bad.ok()) << "flip at " << at;
    EXPECT_EQ(bad.status().code(), StatusCode::kCorruption)
        << "flip at " << at;
  }
}

TEST(ReplWireTest, FrameAlignedPrefixStopsAtTornTailButNotAtBadCrc) {
  std::string one, two;
  wal::AppendFrame(&one, wal::EncodeBegin(1));
  wal::AppendFrame(&two, wal::EncodeCommit(1));
  const std::string both = one + two;

  auto whole = FrameAlignedPrefix(both, both.size());
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, both.size());

  // A byte budget inside frame 2 stops at the frame-1 boundary.
  auto partial = FrameAlignedPrefix(both, one.size() + 3);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(*partial, one.size());

  // An incomplete final frame ends the prefix (the rest ships later)...
  auto torn =
      FrameAlignedPrefix(std::string_view(both).substr(0, both.size() - 2),
                         both.size());
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(*torn, one.size());

  // ...but a complete frame failing its CRC is typed corruption.
  std::string mutated = both;
  mutated[mutated.size() - 1] ^= 0x01;
  auto bad = FrameAlignedPrefix(mutated, mutated.size());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------- primary/replica pairs ----

using server::Client;
using server::Server;
using server::ServerConfig;

class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/mammoth_repl_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    for (auto it = servers_.rbegin(); it != servers_.rend(); ++it) {
      (*it)->Stop();
    }
    servers_.clear();
    fs::remove_all(dir_);
  }

  Server* StartPrimary() {
    ServerConfig config;
    config.port = 0;
    config.db_dir = dir_ + "/primary";
    auto server = std::make_unique<Server>(config);
    EXPECT_TRUE(server->Start().ok());
    servers_.push_back(std::move(server));
    return servers_.back().get();
  }

  Server* StartReplica(uint16_t primary_port, const std::string& db_dir = "") {
    ServerConfig config;
    config.port = 0;
    config.db_dir = db_dir;
    config.replicate_from = "127.0.0.1:" + std::to_string(primary_port);
    auto server = std::make_unique<Server>(config);
    EXPECT_TRUE(server->Start().ok());
    servers_.push_back(std::move(server));
    return servers_.back().get();
  }

  Client Connect(Server* server) {
    auto client = Client::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// Polls until `pred` holds; returns false after ~5s.
  bool WaitUntil(const std::function<bool()>& pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  /// Fully caught up: replayed to the primary's durable LSN *and* the
  /// acks made it back (the ack frame trails replay by one round trip,
  /// so lag is briefly nonzero even on a drained stream).
  bool WaitForCatchUp(Server* primary, Server* replica) {
    return WaitUntil([&] {
      const auto p = primary->stats();
      const auto r = replica->stats();
      return r.repl_replayed_lsn == p.wal.durable_lsn &&
             p.wal.durable_lsn > 0 && p.repl_lag_bytes == 0;
    });
  }

  /// Bit-identical SELECT contract: both sides' results encode to the
  /// same wire bytes.
  void ExpectIdentical(Client* a, Client* b, const std::string& sql) {
    auto ra = a->Query(sql);
    auto rb = b->Query(sql);
    ASSERT_TRUE(ra.ok()) << sql << ": " << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << sql << ": " << rb.status().ToString();
    auto ea = server::EncodeResult(*ra);
    auto eb = server::EncodeResult(*rb);
    ASSERT_TRUE(ea.ok());
    ASSERT_TRUE(eb.ok());
    EXPECT_EQ(*ea, *eb) << sql;
  }

  std::string dir_;
  std::vector<std::unique_ptr<Server>> servers_;
};

TEST_F(ReplTest, ReplicaStreamsCatchesUpAndServesIdenticalSelects) {
  Server* primary = StartPrimary();
  Client pc = Connect(primary);
  ASSERT_TRUE(
      pc.Query("CREATE TABLE t (id INT, tag VARCHAR(16), score DOUBLE)")
          .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pc.Query("INSERT INTO t VALUES (" + std::to_string(i) +
                         ", 'pre', " + std::to_string(i) + ".5)")
                    .ok());
  }

  Server* replica = StartReplica(primary->port());
  ASSERT_TRUE(WaitForCatchUp(primary, replica));

  // Writes after the replica subscribed flow through the live stream
  // (and, with semi-sync on by default, are replayed by ack time).
  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE(pc.Query("INSERT INTO t VALUES (" + std::to_string(i) +
                         ", 'post', " + std::to_string(i) + ".5)")
                    .ok());
  }
  ASSERT_TRUE(pc.Query("UPDATE t SET score = 0.0 WHERE id = 7").ok());
  ASSERT_TRUE(pc.Query("DELETE FROM t WHERE id = 13").ok());
  ASSERT_TRUE(WaitForCatchUp(primary, replica));

  Client rc = Connect(replica);
  ExpectIdentical(&pc, &rc, "SELECT id, tag, score FROM t");
  ExpectIdentical(&pc, &rc, "SELECT tag, COUNT(*), SUM(score) FROM t "
                            "GROUP BY tag");
  ExpectIdentical(&pc, &rc, "SELECT id FROM t WHERE score >= 10.0 "
                            "ORDER BY id DESC LIMIT 5");

  // Both roles report replication through SERVER STATUS.
  const auto p = primary->stats();
  EXPECT_EQ(p.repl_role, 0u);
  EXPECT_EQ(p.repl_replicas, 1u);
  EXPECT_EQ(p.repl_acked_lsn, p.wal.durable_lsn);
  EXPECT_EQ(p.repl_lag_bytes, 0u);
  const auto r = replica->stats();
  EXPECT_EQ(r.repl_role, 1u);
  EXPECT_EQ(r.repl_replayed_lsn, p.wal.durable_lsn);
  EXPECT_EQ(r.repl_lag_bytes, 0u);
  EXPECT_GT(r.repl_txns_applied, 40u);
}

TEST_F(ReplTest, ReplicaRejectsEveryWriteShapeWithTypedReadOnly) {
  Server* primary = StartPrimary();
  Client pc = Connect(primary);
  ASSERT_TRUE(pc.Query("CREATE TABLE t (id INT, tag VARCHAR(16))").ok());
  ASSERT_TRUE(pc.Query("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());

  Server* replica = StartReplica(primary->port());
  ASSERT_TRUE(WaitForCatchUp(primary, replica));
  Client rc = Connect(replica);

  // Every DML/DDL shape bounces with kReadOnly over the wire; the
  // session survives each rejection.
  for (const char* sql : {
           "CREATE TABLE nope (x INT)",
           "INSERT INTO t VALUES (3, 'c')",
           "UPDATE t SET tag = 'z' WHERE id = 1",
           "DELETE FROM t WHERE id = 2",
           "ALTER TABLE t COMPRESS",
           "ALTER TABLE t DECOMPRESS",
       }) {
    auto r = rc.Query(sql);
    ASSERT_FALSE(r.ok()) << sql << " succeeded on a replica";
    EXPECT_EQ(r.status().code(), StatusCode::kReadOnly) << sql;
  }

  // The prepared path hits the same gate at EXECUTE time.
  auto ins = rc.Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  auto run = rc.ExecutePrepared(*ins, {Value::Int(9), Value::Str("x")});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kReadOnly);

  // Reads keep working after all those rejections, and none of the
  // writes took effect anywhere.
  auto count = rc.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->columns[0]->ValueAt<int64_t>(0), 2);
  ExpectIdentical(&pc, &rc, "SELECT id, tag FROM t");
}

TEST_F(ReplTest, SnapshotBootstrapsAReplicaPastCheckpointGc) {
  Server* primary = StartPrimary();
  Client pc = Connect(primary);
  ASSERT_TRUE(pc.Query("CREATE TABLE t (id INT, v INT)").ok());
  std::string ins = "INSERT INTO t VALUES ";
  for (int i = 0; i < 500; ++i) {
    if (i > 0) ins += ", ";
    ins += "(" + std::to_string(i) + ", " + std::to_string(i % 9) + ")";
  }
  ASSERT_TRUE(pc.Query(ins).ok());
  // The checkpoint GCs the pre-checkpoint segments: a fresh subscriber's
  // LSN 0 now predates the oldest retained log byte, forcing a snapshot
  // bootstrap instead of log shipping from the beginning.
  ASSERT_TRUE(pc.Query("CHECKPOINT;").ok());
  ASSERT_TRUE(pc.Query("INSERT INTO t VALUES (1000, 1)").ok());

  Server* replica = StartReplica(primary->port());
  ASSERT_TRUE(WaitForCatchUp(primary, replica));
  EXPECT_GE(replica->stats().repl_snapshots, 1u);
  EXPECT_GE(primary->stats().repl_snapshots, 1u);

  Client rc = Connect(replica);
  ExpectIdentical(&pc, &rc, "SELECT id, v FROM t");
  ExpectIdentical(&pc, &rc, "SELECT v, COUNT(*) FROM t GROUP BY v");

  // Post-bootstrap DML streams normally.
  ASSERT_TRUE(pc.Query("DELETE FROM t WHERE v = 3").ok());
  ASSERT_TRUE(WaitForCatchUp(primary, replica));
  ExpectIdentical(&pc, &rc, "SELECT id, v FROM t");
}

TEST_F(ReplTest, PromoteTurnsTheReplicaIntoADurableWritablePrimary) {
  Server* primary = StartPrimary();
  Client pc = Connect(primary);
  ASSERT_TRUE(pc.Query("CREATE TABLE t (id INT, tag VARCHAR(16))").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pc.Query("INSERT INTO t VALUES (" + std::to_string(i) +
                         ", 'old')")
                    .ok());
  }

  const std::string promoted_dir = dir_ + "/promoted";
  Server* replica = StartReplica(primary->port(), promoted_dir);
  ASSERT_TRUE(WaitForCatchUp(primary, replica));

  // The old primary dies (gracefully here; repl_failover_test does it
  // with SIGKILL). PROMOTE must then succeed even though the replica's
  // applier has lost its source.
  pc.Close();
  servers_.front()->Stop();

  Client rc = Connect(replica);
  auto promoted = rc.Query("PROMOTE");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_EQ(promoted->names.size(), 1u);
  EXPECT_EQ(promoted->names[0], "promoted_lsn");
  EXPECT_GT(promoted->columns[0]->ValueAt<int64_t>(0), 0);

  // PROMOTE is idempotent-hostile: a second call is a typed error, not a
  // second role change.
  EXPECT_FALSE(rc.Query("PROMOTE").ok());

  // Writable now — and still serving the replicated history.
  ASSERT_TRUE(rc.Query("INSERT INTO t VALUES (100, 'new')").ok());
  auto all = rc.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->columns[0]->ValueAt<int64_t>(0), 11);
  EXPECT_EQ(replica->stats().repl_role, 0u);

  // The promoted primary re-anchored durably in its own directory: a
  // recovery of that directory sees the full history, replicated rows
  // and post-promotion writes alike.
  servers_.back()->Stop();
  Catalog recovered;
  auto info = wal::Recover(promoted_dir, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto t = recovered.Get("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->VisibleRowCount(), 11u);
}

TEST_F(ReplTest, TwoReplicasBothDrainAndServeTheSameBytes) {
  Server* primary = StartPrimary();
  Client pc = Connect(primary);
  ASSERT_TRUE(pc.Query("CREATE TABLE t (id INT, v INT)").ok());

  Server* r1 = StartReplica(primary->port());
  Server* r2 = StartReplica(primary->port());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(pc.Query("INSERT INTO t VALUES (" + std::to_string(i) +
                         ", " + std::to_string(i * i) + ")")
                    .ok());
  }
  ASSERT_TRUE(WaitForCatchUp(primary, r1));
  ASSERT_TRUE(WaitForCatchUp(primary, r2));
  EXPECT_EQ(primary->stats().repl_replicas, 2u);
  EXPECT_EQ(primary->stats().repl_lag_bytes, 0u);

  Client c1 = Connect(r1);
  Client c2 = Connect(r2);
  ExpectIdentical(&pc, &c1, "SELECT id, v FROM t");
  ExpectIdentical(&c1, &c2, "SELECT id, v FROM t");
}

}  // namespace
}  // namespace mammoth::repl
