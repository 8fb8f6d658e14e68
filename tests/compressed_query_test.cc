/// Cross-checks for compression as an execution path: query results over
/// compressed tables must be bit-identical to the uncompressed path —
/// direct (no scheduler), through shared scans at pools of 1/2/4/8, and
/// over the wire protocol. Style follows shared_scan_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "compress/compressed_kernels.h"
#include "core/table.h"
#include "parallel/task_pool.h"
#include "scan/shared_scan.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/engine.h"

namespace mammoth {
namespace {

using server::Client;
using server::EncodeResult;
using server::Server;
using server::ServerConfig;

constexpr size_t kChunk = size_t{1} << 16;
constexpr size_t kRows = 3 * kChunk + 500;  // eligible, ragged tail

/// An int32-heavy table whose columns favour different codecs: `id`
/// sorted (PFOR-DELTA), `val` random small-range (PDICT/PFOR), `tag`
/// long runs (RLE) — so ALTER TABLE COMPRESS exercises CompressBest's
/// per-column choices and the wire probes have an RLE winner.
TablePtr EventsTable() {
  BatPtr id = Bat::New(PhysType::kInt32);
  BatPtr val = Bat::New(PhysType::kInt32);
  BatPtr tag = Bat::New(PhysType::kInt32);
  BatPtr big = Bat::New(PhysType::kInt64);
  id->Resize(kRows);
  val->Resize(kRows);
  tag->Resize(kRows);
  big->Resize(kRows);
  int32_t* idp = id->MutableTailData<int32_t>();
  int32_t* vp = val->MutableTailData<int32_t>();
  int32_t* tp = tag->MutableTailData<int32_t>();
  int64_t* bp = big->MutableTailData<int64_t>();
  Rng rng(777);
  for (size_t i = 0; i < kRows; ++i) {
    idp[i] = static_cast<int32_t>(i);
    vp[i] = static_cast<int32_t>(rng.Uniform(10000));
    tp[i] = static_cast<int32_t>(i / 1000);  // runs of 1000
    bp[i] = (int64_t{1} << 34) + static_cast<int64_t>(rng.Uniform(512));
  }
  auto t = Table::FromColumns("events",
                              {{"id", PhysType::kInt32},
                               {"val", PhysType::kInt32},
                               {"tag", PhysType::kInt32},
                               {"big", PhysType::kInt64}},
                              {id, val, tag, big});
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

const std::vector<std::string>& CrossQueries() {
  static const std::vector<std::string> queries = {
      // Range select on a compressed column + compressed projections.
      "SELECT id, val FROM events WHERE val >= 100 AND val <= 2000",
      // Theta-ish narrow range; tag projection decodes RLE blocks.
      "SELECT id, tag FROM events WHERE val >= 5000 AND val <= 5100",
      // Aggregate over a compressed projection.
      "SELECT COUNT(*), SUM(val) FROM events WHERE val >= 500 AND "
      "val <= 9000",
      // int64 compressed column as both predicate and output.
      "SELECT big FROM events WHERE big >= 17179869184 AND "
      "big <= 17179869284",
      // Full sweep: every row qualifies (wire-compressible tag output).
      "SELECT tag FROM events WHERE val >= 0 AND val <= 10000",
  };
  return queries;
}

/// The serial, uncompressed yardstick: wire encodings (caps=0) of every
/// query on a plain engine.
std::vector<std::string> PlainEncodings() {
  sql::Engine plain;
  EXPECT_TRUE(plain.catalog()->Register(EventsTable()).ok());
  std::vector<std::string> encodings;
  for (const std::string& q : CrossQueries()) {
    auto r = plain.Execute(q, parallel::ExecContext::Serial());
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    auto payload = EncodeResult(*r);
    EXPECT_TRUE(payload.ok());
    encodings.push_back(*payload);
  }
  return encodings;
}

// ----------------------------------------------------------- direct path --

TEST(CompressedQueryTest, AlterCompressBitIdenticalDirect) {
  const std::vector<std::string> expected = PlainEncodings();

  sql::Engine engine;
  ASSERT_TRUE(engine.catalog()->Register(EventsTable()).ok());
  ASSERT_TRUE(engine.Execute("ALTER TABLE events COMPRESS").ok());

  const auto cs = engine.compression_stats();
  EXPECT_EQ(cs.compressed_tables, 1u);
  EXPECT_EQ(cs.compressed_columns, 4u);  // three int32 + one int64
  EXPECT_GT(cs.logical_bytes, cs.compressed_bytes);

  for (size_t q = 0; q < CrossQueries().size(); ++q) {
    auto r = engine.Execute(CrossQueries()[q], parallel::ExecContext::Serial());
    ASSERT_TRUE(r.ok()) << CrossQueries()[q] << ": " << r.status().ToString();
    auto payload = EncodeResult(*r);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, expected[q]) << CrossQueries()[q];
  }

  // DECOMPRESS restores plain storage and the same answers.
  ASSERT_TRUE(engine.Execute("ALTER TABLE events DECOMPRESS").ok());
  EXPECT_EQ(engine.compression_stats().compressed_columns, 0u);
  auto r = engine.Execute(CrossQueries()[0], parallel::ExecContext::Serial());
  ASSERT_TRUE(r.ok());
  auto payload = EncodeResult(*r);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, expected[0]);
}

TEST(CompressedQueryTest, CreateCompressedTableDmlAndSelect) {
  // The DDL path: CREATE ... COMPRESSED, then INSERT (delta on top of
  // compressed mains) and DELETE, checked against a plain twin.
  const std::string create = " (k INT, v INT)";
  const std::string rows =
      "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 20), (5, 10)";
  sql::Engine plain, comp;
  ASSERT_TRUE(plain.Execute("CREATE TABLE t" + create).ok());
  ASSERT_TRUE(comp.Execute("CREATE TABLE t" + create + " COMPRESSED").ok());
  for (sql::Engine* e : {&plain, &comp}) {
    ASSERT_TRUE(e->Execute(rows).ok());
    ASSERT_TRUE(e->Execute("DELETE FROM t WHERE v = 30").ok());
  }
  EXPECT_EQ(comp.compression_stats().compressed_tables, 1u);
  const std::string q = "SELECT k, v FROM t WHERE v >= 10 AND v <= 20";
  auto want = plain.Execute(q);
  auto got = comp.Execute(q);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto we = EncodeResult(*want);
  auto ge = EncodeResult(*got);
  ASSERT_TRUE(we.ok());
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(*ge, *we);
}

/// UPDATE fetches only its target rows. On a COMPRESSED table with
/// pending inserts, an UPDATE whose predicate hits one main row and one
/// delta row gathers just those rows — a bounded decode of the main
/// image, a plain gather from the delta — never a whole-column decode,
/// and leaves the table equal to a plain twin's.
TEST(CompressedQueryTest, UpdateFetchesOnlyTargetRows) {
  // `k` is a permutation (unique, PFOR-coded), `v` random int64.
  constexpr int kMainRows = 4096;
  std::vector<int> perm(kMainRows);
  for (int i = 0; i < kMainRows; ++i) perm[i] = i;
  Rng rng(41);
  for (int i = kMainRows - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  std::string rows = "INSERT INTO u VALUES ";
  for (int i = 0; i < kMainRows; ++i) {
    rows += (i == 0 ? "(" : ", (") + std::to_string(perm[i]) + ", " +
            std::to_string(rng.Uniform(1u << 20)) + ", 's" +
            std::to_string(i % 7) + "')";
  }
  const std::vector<std::string> pending = {
      "INSERT INTO u VALUES (77, 1, 'new'), (5000, 2, 's3')",
      "INSERT INTO u VALUES (5001, 3, 's1')",
  };
  sql::Engine plain, comp;
  for (sql::Engine* e : {&plain, &comp}) {
    ASSERT_TRUE(e->Execute("CREATE TABLE u (k INT, v BIGINT, s TEXT)").ok());
    ASSERT_TRUE(e->Execute(rows).ok());
  }
  ASSERT_TRUE(comp.Execute("ALTER TABLE u COMPRESS").ok());
  auto table = comp.catalog()->Get("u");
  ASSERT_TRUE(table.ok());
  ASSERT_NE((*table)->CompressedColumn(0), nullptr);
  ASSERT_NE((*table)->CompressedColumn(1), nullptr);
  for (sql::Engine* e : {&plain, &comp}) {
    for (const std::string& p : pending) ASSERT_TRUE(e->Execute(p).ok());
  }
  ASSERT_EQ((*table)->PendingInsertCount(), 3u);

  const compress::KernelStats before = compress::GetKernelStats();
  const std::string update =
      "UPDATE u SET v = 2000000, s = 'upd' WHERE k = 77";
  ASSERT_TRUE(plain.Execute(update).ok());
  ASSERT_TRUE(comp.Execute(update).ok());
  EXPECT_EQ(compress::GetKernelStats().project_full, before.project_full)
      << "the UPDATE decoded a whole column";

  for (const std::string q :
       {"SELECT k, v, s FROM u", "SELECT k, v, s FROM u WHERE k = 77",
        "SELECT COUNT(*), SUM(v) FROM u WHERE v = 2000000"}) {
    auto want = plain.Execute(q, parallel::ExecContext::Serial());
    auto got = comp.Execute(q, parallel::ExecContext::Serial());
    ASSERT_TRUE(want.ok() && got.ok()) << q;
    auto we = EncodeResult(*want);
    auto ge = EncodeResult(*got);
    ASSERT_TRUE(we.ok() && ge.ok());
    EXPECT_EQ(*ge, *we) << q;
  }
  auto hit = comp.Execute("SELECT COUNT(*) FROM u WHERE v = 2000000");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->columns[0]->ValueAt<int64_t>(0), 2);  // main + delta row
}

// ----------------------------------------------------------- shared path --

/// Concurrent sessions over a compressed table through the shared-scan
/// scheduler: bit-identical to the plain serial engine at every pool
/// size, with the pass decompressing chunks once into shared buffers.
TEST(CompressedQueryTest, SharedScansOverCompressedBitIdenticalAcrossPools) {
  const std::vector<std::string> expected = PlainEncodings();

  for (int threads : {1, 2, 4, 8}) {
    sql::Engine engine;
    ASSERT_TRUE(engine.catalog()->Register(EventsTable()).ok());
    ASSERT_TRUE(engine.Execute("ALTER TABLE events COMPRESS").ok());

    scan::SharedScanConfig config;
    config.chunk_bytes = kChunk;
    config.min_share_rows = kChunk;
    scan::SharedScanScheduler sched(config);
    engine.AttachSharedScans(&sched);
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);

    std::vector<std::thread> sessions;
    for (int s = 0; s < 6; ++s) {
      sessions.emplace_back([&, s] {
        for (int round = 0; round < 3; ++round) {
          const size_t q = (s + round) % CrossQueries().size();
          auto r = engine.Execute(CrossQueries()[q], ctx);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          auto payload = EncodeResult(*r);
          ASSERT_TRUE(payload.ok());
          EXPECT_EQ(*payload, expected[q]) << CrossQueries()[q];
        }
      });
    }
    for (auto& s : sessions) s.join();

    const auto stats = sched.stats();
    EXPECT_GT(stats.scans_attached + stats.scans_direct, 0u) << threads;
    // The compressed pass decompressed chunks into shared buffers (each
    // chunk once per pass, however many consumers were attached).
    EXPECT_GT(stats.chunks_decompressed, 0u) << threads;
    EXPECT_GT(stats.bytes_delivered, 0u) << threads;
    // Compressed loads account fewer bytes than the logical delivery.
    EXPECT_LT(stats.bytes_loaded, stats.bytes_delivered) << threads;
  }
}

// ------------------------------------------------------------- wire path --

std::map<std::string, int64_t> StatusCounters(Client* client) {
  auto r = client->Query("SERVER STATUS");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::map<std::string, int64_t> counters;
  for (size_t i = 0; i < r->RowCount(); ++i) {
    counters[std::string(r->columns[0]->StringAt(i))] =
        r->columns[1]->ValueAt<int64_t>(i);
  }
  return counters;
}

/// Remote sessions against a compressed table — with compressed result
/// shipping negotiated — decode to exactly the plain in-process bytes,
/// and the server's saved-bytes counter shows the wire win.
TEST(CompressedQueryTest, WireResultsBitIdenticalAndCompressed) {
  const std::vector<std::string> expected = PlainEncodings();

  ServerConfig config;
  config.port = 0;
  auto server = std::make_unique<Server>(config);
  ASSERT_TRUE(server->engine()->catalog()->Register(EventsTable()).ok());
  ASSERT_TRUE(server->engine()->Execute("ALTER TABLE events COMPRESS").ok());
  ASSERT_TRUE(server->Start().ok());

  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The server advertises compressed shipping; the client negotiated it.
  EXPECT_NE(client->hello().caps & server::kWireCapCompressedResults, 0u);

  for (size_t q = 0; q < CrossQueries().size(); ++q) {
    auto remote = client->Query(CrossQueries()[q]);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto encoded = EncodeResult(*remote);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(*encoded, expected[q]) << CrossQueries()[q];
  }

  auto counters = StatusCounters(&*client);
  EXPECT_EQ(counters["compressed_tables"], 1);
  EXPECT_EQ(counters["compressed_columns"], 4);
  EXPECT_GT(counters["compressed_logical_bytes"],
            counters["compressed_bytes"]);
  // The full-sweep tag query ships ~197K run-heavy int32 values: RLE
  // must have beaten the raw tail on the wire.
  EXPECT_GT(counters["wire_result_bytes_saved"], 0);

  client->Close();
  server->Stop();
}

}  // namespace
}  // namespace mammoth
