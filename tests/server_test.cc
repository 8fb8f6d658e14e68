#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/table.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/wire.h"
#include "sql/engine.h"

namespace mammoth {
namespace {

using server::AdmissionConfig;
using server::AdmissionController;
using server::Client;
using server::EncodeResult;
using server::Server;
using server::ServerConfig;

// Deterministic dataset shared by the server engine and the in-process
// reference engine; sized to stay quick under TSan.
constexpr int kRows = 2000;

std::string SetupScript() {
  std::string script =
      "CREATE TABLE sensors (id INT, temp INT, room VARCHAR(16));"
      "CREATE TABLE rooms (room VARCHAR(16), floor INT);"
      "INSERT INTO rooms VALUES ('lab', 1), ('office', 2), ('hall', 3);";
  script += "INSERT INTO sensors VALUES ";
  for (int i = 0; i < kRows; ++i) {
    if (i > 0) script += ", ";
    const char* room =
        i % 3 == 0 ? "lab" : (i % 3 == 1 ? "office" : "hall");
    script += "(" + std::to_string(i) + ", " +
              std::to_string((i * 37) % 500) + ", '" + room + "')";
  }
  script += ";";
  return script;
}

const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "SELECT id, temp FROM sensors WHERE temp >= 100 AND temp <= 200",
      "SELECT room, COUNT(*), SUM(temp) FROM sensors GROUP BY room",
      "SELECT temp FROM sensors WHERE room = 'lab' ORDER BY temp DESC "
      "LIMIT 25",
      "SELECT MIN(temp), MAX(temp), COUNT(*) FROM sensors",
      "SELECT sensors.id, rooms.floor FROM sensors, rooms "
      "WHERE sensors.room = rooms.room AND sensors.temp < 40",
  };
  return queries;
}

/// Wire encodings of every query run on a fresh in-process engine — the
/// byte-exact yardstick remote sessions must reproduce.
std::vector<std::string> InProcessEncodings() {
  sql::Engine engine;
  auto setup = engine.ExecuteScript(SetupScript());
  EXPECT_TRUE(setup.ok()) << setup.status().ToString();
  std::vector<std::string> encodings;
  for (const std::string& q : Queries()) {
    auto result = engine.Execute(q);
    EXPECT_TRUE(result.ok()) << q << ": " << result.status().ToString();
    auto payload = EncodeResult(*result);
    EXPECT_TRUE(payload.ok());
    encodings.push_back(*payload);
  }
  return encodings;
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerConfig config = {}) {
    config.port = 0;  // ephemeral
    server_ = std::make_unique<Server>(config);
    auto setup = server_->engine()->ExecuteScript(SetupScript());
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  std::map<std::string, int64_t> ServerStatus(Client* client) {
    auto r = client->Query("SERVER STATUS");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::map<std::string, int64_t> counters;
    for (size_t i = 0; i < r->RowCount(); ++i) {
      counters[std::string(r->columns[0]->StringAt(i))] =
          r->columns[1]->ValueAt<int64_t>(i);
    }
    return counters;
  }

  std::unique_ptr<Server> server_;
};

// -------------------------------------------------- admission (direct) --

TEST(AdmissionTest, FifoGrantOrder) {
  AdmissionConfig config;
  config.max_inflight = 1;
  config.queue_timeout_ms = 5000;
  AdmissionController ctrl(config, nullptr);
  auto first = ctrl.Admit();
  ASSERT_TRUE(first.ok());

  std::vector<int> order;
  std::mutex order_mu;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      // Stagger arrival so the FIFO queue order is deterministic.
      std::this_thread::sleep_for(std::chrono::milliseconds(30 * (i + 1)));
      auto t = ctrl.Admit();
      ASSERT_TRUE(t.ok());
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  { auto release = std::move(*first); }  // frees the slot: waiter 0's turn
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  const auto s = ctrl.stats();
  EXPECT_EQ(s.admitted, 4u);
  EXPECT_EQ(s.queued_total, 3u);
  EXPECT_EQ(s.peak_inflight, 1);
  EXPECT_EQ(s.timed_out, 0u);
}

TEST(AdmissionTest, QueueTimeoutIsTyped) {
  AdmissionConfig config;
  config.max_inflight = 0;  // nothing ever admitted
  config.queue_timeout_ms = 20;
  AdmissionController ctrl(config, nullptr);
  auto t = ctrl.Admit();
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kTimedOut);
  EXPECT_EQ(ctrl.stats().timed_out, 1u);
  EXPECT_EQ(ctrl.stats().queued, 0);  // timed-out waiter unlinked itself
}

TEST(AdmissionTest, FullQueueRejectsImmediately) {
  AdmissionConfig config;
  config.max_inflight = 0;
  config.max_queue = 0;
  AdmissionController ctrl(config, nullptr);
  auto t = ctrl.Admit();
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(ctrl.stats().rejected, 1u);
}

TEST(AdmissionTest, ShutdownAbandonsWaiters) {
  AdmissionConfig config;
  config.max_inflight = 0;
  config.queue_timeout_ms = 10000;
  AdmissionController ctrl(config, nullptr);
  std::thread waiter([&] {
    auto t = ctrl.Admit();
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ctrl.Shutdown();
  waiter.join();
  EXPECT_FALSE(ctrl.Admit().ok());  // post-shutdown admits fail too
}

// ----------------------------------------------------- server sessions --

TEST_F(ServerTest, HelloHandshake) {
  StartServer();
  Client client = Connect();
  EXPECT_GT(client.hello().session_id, 0u);
  EXPECT_EQ(client.hello().server_name, "mammothdb");
}

TEST_F(ServerTest, SingleSessionMatchesInProcessBitForBit) {
  StartServer();
  const std::vector<std::string> expected = InProcessEncodings();
  Client client = Connect();
  for (size_t q = 0; q < Queries().size(); ++q) {
    auto remote = client.Query(Queries()[q]);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto encoded = EncodeResult(*remote);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(*encoded, expected[q]) << Queries()[q];
  }
  client.Close();
}

TEST_F(ServerTest, SqlErrorsAreTypedAndSessionSurvives) {
  StartServer();
  Client client = Connect();
  auto bad = client.Query("SELECT nope FROM sensors");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  auto good = client.Query("SELECT COUNT(*) FROM sensors");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->columns[0]->ValueAt<int64_t>(0), kRows);
}

TEST_F(ServerTest, SixteenConcurrentSessionsBitIdentical) {
  ServerConfig config;
  config.max_sessions = 24;
  config.admission.max_inflight = 8;
  StartServer(config);
  const std::vector<std::string> expected = InProcessEncodings();

  constexpr int kClients = 16;
  constexpr int kReps = 3;
  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int rep = 0; rep < kReps; ++rep) {
        // Different clients walk the query list from different offsets.
        for (size_t q = 0; q < Queries().size(); ++q) {
          const size_t idx = (q + t) % Queries().size();
          auto remote = client->Query(Queries()[idx]);
          if (!remote.ok()) {
            ++failures;
            continue;
          }
          auto encoded = EncodeResult(*remote);
          if (!encoded.ok() || *encoded != expected[idx]) ++mismatches;
        }
      }
      client->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  Client probe = Connect();
  auto counters = ServerStatus(&probe);
  EXPECT_EQ(counters["queries_ok"],
            kClients * kReps * static_cast<int64_t>(Queries().size()));
  EXPECT_EQ(counters["queries_failed"], 0);
  EXPECT_LE(counters["queries_peak_inflight"], 8);
  EXPECT_EQ(counters["sessions_total"], kClients + 1);
}

TEST_F(ServerTest, ConcurrentReadersAndWriters) {
  StartServer();
  // Writers build private tables while readers hammer the shared one:
  // exercises the engine's reader/writer lock under TSan.
  constexpr int kWriters = 3, kReaders = 5, kWriterRows = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      const std::string table = "w" + std::to_string(w);
      if (!client->Query("CREATE TABLE " + table + " (v INT)").ok()) {
        ++failures;
      }
      for (int i = 0; i < kWriterRows; ++i) {
        if (!client
                 ->Query("INSERT INTO " + table + " VALUES (" +
                         std::to_string(i) + ")")
                 .ok()) {
          ++failures;
        }
      }
      auto sum = client->Query("SELECT SUM(v) FROM " + table);
      if (!sum.ok() ||
          sum->columns[0]->ValueAt<int64_t>(0) !=
              kWriterRows * (kWriterRows - 1) / 2) {
        ++failures;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 10; ++i) {
        auto count = client->Query(
            "SELECT room, COUNT(*) FROM sensors GROUP BY room");
        if (!count.ok() || count->RowCount() != 3) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ------------------------------------------------ admission (over wire) --

TEST_F(ServerTest, AdmissionTimeoutSendsTypedErrorFrame) {
  ServerConfig config;
  config.admission.max_inflight = 0;  // every query must time out
  config.admission.queue_timeout_ms = 20;
  StartServer(config);
  Client client = Connect();
  auto r = client.Query("SELECT COUNT(*) FROM sensors");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimedOut);
  // SERVER STATUS bypasses admission, so the session can still report.
  auto counters = ServerStatus(&client);
  EXPECT_GE(counters["queries_timed_out"], 1);
  EXPECT_EQ(counters["queries_admitted"], 0);
}

TEST_F(ServerTest, InflightBoundHoldsUnderHammering) {
  ServerConfig config;
  config.admission.max_inflight = 2;
  config.admission.queue_timeout_ms = 30000;
  StartServer(config);
  constexpr int kClients = 8, kQueriesEach = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kQueriesEach; ++i) {
        if (!client->Query("SELECT SUM(temp) FROM sensors").ok()) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  Client probe = Connect();
  auto counters = ServerStatus(&probe);
  EXPECT_EQ(counters["queries_admitted"], kClients * kQueriesEach);
  EXPECT_GE(counters["queries_peak_inflight"], 1);
  EXPECT_LE(counters["queries_peak_inflight"], 2);  // the enforced bound
  EXPECT_EQ(counters["queries_timed_out"], 0);
}

// ------------------------------------------------------------ shutdown --

TEST_F(ServerTest, SessionLimitRejectsWithErrorFrame) {
  ServerConfig config;
  config.max_sessions = 1;
  StartServer(config);
  Client first = Connect();
  ASSERT_TRUE(first.connected());
  auto second = Client::Connect("127.0.0.1", server_->port());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServerTest, DrainRejectsNewWorkAndStops) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM sensors").ok());

  server_->BeginDrain();
  // New connections bounce with a typed Error frame instead of hanging.
  auto late = Client::Connect("127.0.0.1", server_->port());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  // The existing session is told off too (or, if the race goes the
  // other way, sees the connection close).
  auto r = client.Query("SELECT COUNT(*) FROM sensors");
  EXPECT_FALSE(r.ok());

  server_->Stop();  // must not hang; sessions all drained
  EXPECT_TRUE(server_->stats().draining);
  EXPECT_EQ(server_->stats().sessions_open, 0);
}

TEST_F(ServerTest, StopIsIdempotentAndDestructorSafe) {
  StartServer();
  { Client client = Connect(); }
  server_->Stop();
  server_->Stop();
  server_.reset();  // destructor Stop() on a stopped server
}

TEST_F(ServerTest, StatusCountersTrackBytes) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Query(Queries()[0]).ok());
  auto counters = ServerStatus(&client);
  EXPECT_EQ(counters["wire_version"], server::kWireVersion);
  EXPECT_EQ(counters["sessions_open"], 1);
  EXPECT_GT(counters["bytes_in"], 0);
  EXPECT_GT(counters["bytes_out"], 0);
  EXPECT_EQ(counters["draining"], 0);
}

/// SERVER STATUS row ordering is a machine-readable contract (see
/// DESIGN.md): rows keep their position across releases and new counters
/// only ever append. Scrapers may index rows positionally; this test is
/// the tripwire that turns a silent reorder into a red build.
TEST_F(ServerTest, StatusRowOrderingIsAStableContract) {
  StartServer();
  Client client = Connect();
  auto r = client.Query("SERVER STATUS");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->names.size(), 2u);
  EXPECT_EQ(r->names[0], "counter");
  EXPECT_EQ(r->names[1], "value");
  const std::vector<std::string> kCanonicalOrder = {
      "wire_version", "draining", "sessions_open", "sessions_total",
      "sessions_rejected", "queries_ok", "queries_failed",
      "queries_admitted", "queries_queued_total", "queries_queued_now",
      "queries_inflight", "queries_peak_inflight", "queries_timed_out",
      "queries_rejected", "bytes_in", "bytes_out",
      "shared_scans_attached", "shared_scans_direct",
      "shared_chunks_loaded", "shared_chunks_delivered",
      "shared_chunks_skipped", "shared_loads_saved",
      "shared_chunks_decompressed", "shared_bytes_loaded",
      "shared_bytes_delivered", "compressed_tables", "compressed_columns",
      "compressed_bytes", "compressed_logical_bytes",
      "wire_result_bytes_saved", "epoll_sessions", "pipelined_in_flight",
      "prepared_cache_entries", "prepared_cache_hits",
      "prepared_cache_misses", "prepared_cache_evictions", "durable",
      "wal_txns", "wal_commits_synced", "wal_fsyncs", "wal_bytes",
      "wal_checkpoints", "wal_durable_lsn", "wal_recovered_txns",
      "repl_role", "repl_replicas", "repl_shipped_lsn", "repl_acked_lsn",
      "repl_replayed_lsn", "repl_source_durable_lsn", "repl_lag_bytes",
      "repl_txns_applied", "repl_snapshots", "recycler_compressed_bytes",
      "compressed_kernel_selects", "compressed_kernel_select_fallbacks",
      "compressed_kernel_aggrs", "compressed_kernel_aggr_fallbacks",
      "compressed_project_bounded", "compressed_project_full",
      "compressed_cache_bytes", "txn_begun", "txn_committed",
      "txn_rolled_back", "txn_conflicts", "txn_active"};
  ASSERT_EQ(r->RowCount(), kCanonicalOrder.size());
  for (size_t i = 0; i < kCanonicalOrder.size(); ++i) {
    EXPECT_EQ(r->columns[0]->StringAt(i), kCanonicalOrder[i])
        << "row " << i << " moved: the ordering is a wire contract — "
        << "new counters must append, existing rows must not move";
  }
  // Every replication row is present (zeros) on a standalone server:
  // consumers need not probe for their existence.
  auto counters = ServerStatus(&client);
  EXPECT_EQ(counters["repl_role"], 0);
  EXPECT_EQ(counters["repl_replicas"], 0);
  EXPECT_EQ(counters["repl_lag_bytes"], 0);
}

/// Satellite: the kPrepared reply carries typed parameter metadata when
/// the client negotiated kWireCapParamTypes — placeholder types inferred
/// from the catalog (column comparisons, INSERT positions), exposed on
/// the client's PreparedHandle.
TEST_F(ServerTest, PreparedReplyCarriesParamTypeMetadata) {
  StartServer();
  Client client = Connect();
  ASSERT_NE(client.caps() & server::kWireCapParamTypes, 0u);

  // temp INT, room VARCHAR: one int and one string placeholder.
  auto where = client.Prepare(
      "SELECT id FROM sensors WHERE temp > ? AND room = ?");
  ASSERT_TRUE(where.ok()) << where.status().ToString();
  EXPECT_EQ(where->nparams, 2u);
  ASSERT_EQ(where->param_types.size(), 2u);
  EXPECT_EQ(where->param_types[0],
            static_cast<uint8_t>(server::ParamType::kInt));
  EXPECT_EQ(where->param_types[1],
            static_cast<uint8_t>(server::ParamType::kStr));

  // INSERT infers by column position: (INT, INT, VARCHAR).
  auto insert = client.Prepare("INSERT INTO sensors VALUES (?, ?, ?)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  ASSERT_EQ(insert->param_types.size(), 3u);
  EXPECT_EQ(insert->param_types[0],
            static_cast<uint8_t>(server::ParamType::kInt));
  EXPECT_EQ(insert->param_types[1],
            static_cast<uint8_t>(server::ParamType::kInt));
  EXPECT_EQ(insert->param_types[2],
            static_cast<uint8_t>(server::ParamType::kStr));

  // No placeholders: no metadata, and execution still works.
  auto plain = client.Prepare("SELECT COUNT(*) FROM sensors");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->nparams, 0u);
  EXPECT_TRUE(plain->param_types.empty());
  auto run = client.ExecutePrepared(*where, {Value::Int(100),
                                             Value::Str("lab")});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
}

/// The compression counters are part of the status relation from the
/// start (all zero on an uncompressed catalog) and move when a table is
/// compressed and compressible results ship to a caps-negotiated client.
TEST_F(ServerTest, StatusReportsCompressionCounters) {
  StartServer();
  Client client = Connect();
  auto counters = ServerStatus(&client);
  for (const char* key :
       {"compressed_tables", "compressed_columns", "compressed_bytes",
        "compressed_logical_bytes", "wire_result_bytes_saved",
        "shared_chunks_decompressed", "shared_bytes_loaded",
        "shared_bytes_delivered"}) {
    ASSERT_TRUE(counters.count(key) == 1) << key;
    EXPECT_EQ(counters[key], 0) << key;
  }

  // Compress a table with >= 1024 int32 rows and pull a run-friendly
  // result: the storage gauges and the wire-savings counter move.
  ASSERT_TRUE(client.Query("CREATE TABLE z (a INT, b INT)").ok());
  std::string ins = "INSERT INTO z VALUES ";
  for (int i = 0; i < 2048; ++i) {
    if (i > 0) ins += ", ";
    ins += "(" + std::to_string(i) + ", " + std::to_string(i / 256) + ")";
  }
  ASSERT_TRUE(client.Query(ins).ok());
  ASSERT_TRUE(client.Query("ALTER TABLE z COMPRESS").ok());
  auto r = client.Query("SELECT b FROM z WHERE a >= 0 AND a <= 100000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 2048u);

  counters = ServerStatus(&client);
  EXPECT_EQ(counters["compressed_tables"], 1);
  EXPECT_EQ(counters["compressed_columns"], 2);
  EXPECT_GT(counters["compressed_bytes"], 0);
  EXPECT_GT(counters["compressed_logical_bytes"],
            counters["compressed_bytes"]);
  EXPECT_GT(counters["wire_result_bytes_saved"], 0);
}

// ------------------------------------------------------- shared scans --

/// A table big enough to clear the sharing threshold of the shrunken
/// shared-scan config below (one 64K-row chunk).
TablePtr BigScanTable() {
  constexpr size_t kBigRows = 3 * (size_t{1} << 16) + 500;
  BatPtr id = Bat::New(PhysType::kInt64);
  BatPtr val = Bat::New(PhysType::kInt64);
  id->Resize(kBigRows);
  val->Resize(kBigRows);
  int64_t* idp = id->MutableTailData<int64_t>();
  int64_t* vp = val->MutableTailData<int64_t>();
  Rng rng(4242);
  for (size_t i = 0; i < kBigRows; ++i) {
    idp[i] = static_cast<int64_t>(i);
    vp[i] = static_cast<int64_t>(rng.Uniform(100000));
  }
  auto t = Table::FromColumns(
      "metrics_big",
      {{"id", PhysType::kInt64}, {"val", PhysType::kInt64}},
      {std::move(id), std::move(val)});
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

const std::vector<std::string>& ScanQueries() {
  static const std::vector<std::string> queries = {
      "SELECT id, val FROM metrics_big WHERE val >= 1000 AND val <= 60000",
      "SELECT id FROM metrics_big WHERE val >= 20000 AND val <= 80000",
      "SELECT COUNT(*), SUM(val) FROM metrics_big WHERE val >= 5000 AND "
      "val <= 95000",
      "SELECT val FROM metrics_big WHERE val >= 40000 AND val <= 41000",
  };
  return queries;
}

/// N wire sessions issuing overlapping range scans share physical passes
/// through the server's SharedScanScheduler and stay bit-identical to a
/// plain serial in-process engine, for worker pools of 1/2/4/8.
TEST_F(ServerTest, SharedScanSessionsBitIdenticalAcrossPools) {
  // Serial in-process yardstick: no scheduler, no pool.
  std::vector<std::string> expected;
  {
    sql::Engine plain;
    ASSERT_TRUE(plain.catalog()->Register(BigScanTable()).ok());
    for (const std::string& q : ScanQueries()) {
      auto r = plain.Execute(q, parallel::ExecContext::Serial());
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      auto payload = EncodeResult(*r);
      ASSERT_TRUE(payload.ok());
      expected.push_back(*payload);
    }
  }

  for (int threads : {1, 2, 4, 8}) {
    ServerConfig config;
    config.threads = threads;
    config.max_sessions = 16;
    config.shared_scan.min_share_rows = size_t{1} << 16;
    config.port = 0;
    server_ = std::make_unique<Server>(config);
    ASSERT_TRUE(server_->engine()->catalog()->Register(BigScanTable()).ok());
    ASSERT_TRUE(server_->Start().ok());

    constexpr int kClients = 8;
    constexpr int kReps = 2;
    std::atomic<int> mismatches{0}, failures{0};
    std::vector<std::thread> sessions;
    for (int t = 0; t < kClients; ++t) {
      sessions.emplace_back([&, t] {
        auto client = Client::Connect("127.0.0.1", server_->port());
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int rep = 0; rep < kReps; ++rep) {
          for (size_t q = 0; q < ScanQueries().size(); ++q) {
            const size_t idx = (q + t) % ScanQueries().size();
            auto remote = client->Query(ScanQueries()[idx]);
            if (!remote.ok()) {
              ++failures;
              continue;
            }
            auto encoded = EncodeResult(*remote);
            if (!encoded.ok() || *encoded != expected[idx]) ++mismatches;
          }
        }
        client->Close();
      });
    }
    for (std::thread& t : sessions) t.join();
    EXPECT_EQ(failures.load(), 0) << "pool " << threads;
    EXPECT_EQ(mismatches.load(), 0) << "pool " << threads;

    Client probe = Connect();
    auto counters = ServerStatus(&probe);
    // Every query scans metrics_big (eligible), so each one either
    // attached to a shared pass or ran registered-direct.
    const int64_t total_scans = counters["shared_scans_attached"] +
                                counters["shared_scans_direct"];
    EXPECT_GE(total_scans,
              static_cast<int64_t>(kClients * kReps *
                                   ScanQueries().size()))
        << "pool " << threads;
    EXPECT_EQ(counters["shared_loads_saved"],
              counters["shared_chunks_delivered"] -
                  counters["shared_chunks_loaded"]);
    EXPECT_GE(counters["shared_chunks_skipped"], 0);
    probe.Close();
    server_->Stop();
    server_.reset();
  }
}

// -------------------------------------- pipelining / prepared / compat --

/// A hand-rolled socket speaking raw frames: what a legacy (never sends
/// Caps) or hostile client looks like on the wire.
class RawConn {
 public:
  RawConn() = default;
  RawConn(RawConn&& o) noexcept : fd_(o.fd_), buf_(std::move(o.buf_)) {
    o.fd_ = -1;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  static RawConn Open(uint16_t port) {
    RawConn c;
    c.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(c.fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(c.fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return c;
  }

  void Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  Result<server::Frame> ReadFrame() {
    while (true) {
      server::Frame frame;
      MAMMOTH_ASSIGN_OR_RETURN(
          size_t consumed,
          server::DecodeFrame(buf_.data(), buf_.size(), &frame));
      if (consumed > 0) {
        buf_.erase(0, consumed);
        return frame;
      }
      char chunk[64 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Status::IOError("connection closed");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Drains the socket; true when the server closed it (orderly EOF).
  bool ReadUntilEof() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  /// Handshake half of Client::Connect, minus the Caps answer.
  void ExpectHello() {
    auto frame = ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, server::FrameType::kHello);
    auto hello = server::DecodeHello(frame->payload);
    ASSERT_TRUE(hello.ok());
    EXPECT_NE(hello->caps & server::kWireCapPipeline, 0u);
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

TEST_F(ServerTest, PipelinedQueriesCompleteOutOfOrder) {
  StartServer();
  const std::vector<std::string> expected = InProcessEncodings();
  Client client = Connect();
  ASSERT_NE(client.caps() & server::kWireCapPipeline, 0u);

  // Fire every query without reading a byte, then await them newest
  // first: responses land whenever their worker finishes and the client
  // stashes the overtakers.
  std::vector<uint32_t> seqs;
  for (const std::string& q : Queries()) {
    auto seq = client.QueryAsync(q);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    seqs.push_back(*seq);
  }
  EXPECT_EQ(client.in_flight(), Queries().size());
  for (size_t i = seqs.size(); i-- > 0;) {
    auto remote = client.Await(seqs[i]);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto encoded = EncodeResult(*remote);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(*encoded, expected[i]) << Queries()[i];
  }
  EXPECT_EQ(client.in_flight(), 0u);

  // Awaiting a sequence number this client never sent is a client-side
  // protocol error, not a hang.
  auto unknown = client.Await(12345);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  // Errors come back tagged too, and the session survives them.
  auto bad_seq = client.QueryAsync("SELECT nope FROM sensors");
  ASSERT_TRUE(bad_seq.ok());
  auto bad = client.Await(*bad_seq);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  auto good = client.Query("SELECT COUNT(*) FROM sensors");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->columns[0]->ValueAt<int64_t>(0), kRows);
}

/// The pipelined flavour of SixteenConcurrentSessionsBitIdentical: every
/// session keeps its whole query list in flight at once, across reactor
/// worker pools of 1/2/4/8.
TEST_F(ServerTest, SixteenPipelinedSessionsBitIdenticalAcrossPools) {
  const std::vector<std::string> expected = InProcessEncodings();
  for (int workers : {1, 2, 4, 8}) {
    ServerConfig config;
    config.workers = workers;
    config.max_sessions = 20;
    config.admission.max_inflight = 8;
    StartServer(config);

    constexpr int kClients = 16;
    constexpr int kReps = 2;
    std::atomic<int> mismatches{0}, failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        auto client = Client::Connect("127.0.0.1", server_->port());
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int rep = 0; rep < kReps; ++rep) {
          std::vector<std::pair<uint32_t, size_t>> batch;
          for (size_t q = 0; q < Queries().size(); ++q) {
            const size_t idx = (q + t) % Queries().size();
            auto seq = client->QueryAsync(Queries()[idx]);
            if (!seq.ok()) {
              ++failures;
              continue;
            }
            batch.emplace_back(*seq, idx);
          }
          // Await in reverse submission order to force stashing.
          for (size_t i = batch.size(); i-- > 0;) {
            auto remote = client->Await(batch[i].first);
            if (!remote.ok()) {
              ++failures;
              continue;
            }
            auto encoded = EncodeResult(*remote);
            if (!encoded.ok() || *encoded != expected[batch[i].second]) {
              ++mismatches;
            }
          }
        }
        client->Close();
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0) << "workers " << workers;
    EXPECT_EQ(mismatches.load(), 0) << "workers " << workers;

    Client probe = Connect();
    auto counters = ServerStatus(&probe);
    EXPECT_EQ(counters["queries_ok"],
              kClients * kReps * static_cast<int64_t>(Queries().size()))
        << "workers " << workers;
    EXPECT_EQ(counters["pipelined_in_flight"], 0) << "workers " << workers;
    probe.Close();
    server_->Stop();
    server_.reset();
  }
}

TEST_F(ServerTest, HostileSequenceZeroIsSessionFatal) {
  StartServer();
  RawConn conn = RawConn::Open(server_->port());
  conn.ExpectHello();
  conn.Send(server::EncodeFrame(server::FrameType::kCaps,
                                server::EncodeCaps(server::kWireCapPipeline)));
  // Sequence number 0 is reserved: the server answers with one untagged
  // Error frame and drops the session.
  conn.Send(server::EncodeFrame(server::FrameType::kQuerySeq,
                                server::PrependSeq(0, "SELECT 1")));
  auto frame = conn.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, server::FrameType::kError);
  auto err = server::DecodeError(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.ReadUntilEof());
}

TEST_F(ServerTest, DuplicateInFlightSequenceIsSessionFatal) {
  StartServer();
  RawConn conn = RawConn::Open(server_->port());
  conn.ExpectHello();
  conn.Send(server::EncodeFrame(server::FrameType::kCaps,
                                server::EncodeCaps(server::kWireCapPipeline)));
  // Both frames arrive in one segment, so the second is decoded while
  // the first is still in flight — an unambiguous duplicate.
  const std::string q = server::EncodeFrame(
      server::FrameType::kQuerySeq,
      server::PrependSeq(7, "SELECT COUNT(*) FROM sensors"));
  conn.Send(q + q);
  // The first query's tagged response may or may not arrive first; the
  // session must end with an untagged duplicate-seq error and a close.
  bool saw_duplicate_error = false;
  while (true) {
    auto frame = conn.ReadFrame();
    if (!frame.ok()) break;  // server closed the socket
    if (frame->type == server::FrameType::kError) {
      auto err = server::DecodeError(frame->payload);
      ASSERT_TRUE(err.ok());
      EXPECT_NE(err->message.find("duplicate"), std::string::npos)
          << err->message;
      saw_duplicate_error = true;
    }
  }
  EXPECT_TRUE(saw_duplicate_error);
}

/// A client that never sends a Caps frame gets the original protocol:
/// untagged frames, strictly ordered responses, raw result encodings —
/// bit-identical to the pre-pipelining wire image.
TEST_F(ServerTest, OldClientWithoutCapsKeepsWorking) {
  StartServer();
  const std::vector<std::string> expected = InProcessEncodings();
  RawConn conn = RawConn::Open(server_->port());
  conn.ExpectHello();
  // Two back-to-back plain queries in one segment: the reactor must run
  // them serially and answer in order, like the old front-end did.
  conn.Send(server::EncodeFrame(server::FrameType::kQuery, Queries()[0]) +
            server::EncodeFrame(server::FrameType::kQuery, Queries()[1]));
  for (size_t q = 0; q < 2; ++q) {
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, server::FrameType::kResult) << q;
    EXPECT_EQ(frame->payload, expected[q]) << Queries()[q];
  }
  conn.Send(server::EncodeFrame(server::FrameType::kClose, ""));
  EXPECT_TRUE(conn.ReadUntilEof());
}

TEST_F(ServerTest, PreparedOverWireMatchesAndInvalidates) {
  StartServer();
  const std::vector<std::string> expected = InProcessEncodings();
  Client client = Connect();
  ASSERT_NE(client.caps() & server::kWireCapPrepared, 0u);

  auto handle = client.Prepare(
      "SELECT id, temp FROM sensors WHERE temp >= ? AND temp <= ?");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->nparams, 2u);
  for (int rep = 0; rep < 2; ++rep) {
    auto remote = client.ExecutePrepared(
        *handle, {Value::Int(100), Value::Int(200)});
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto encoded = EncodeResult(*remote);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(*encoded, expected[0]) << "rep " << rep;
  }
  auto counters = ServerStatus(&client);
  EXPECT_EQ(counters["prepared_cache_entries"], 1);
  EXPECT_GE(counters["prepared_cache_hits"], 1);   // second execution
  EXPECT_GE(counters["prepared_cache_misses"], 1); // prepare + compile
  const int64_t misses_before = counters["prepared_cache_misses"];

  // DML keeps the cached plan: the next execution is a hit and sees the
  // new row, staying bit-identical to an unprepared query.
  ASSERT_TRUE(client.Query("INSERT INTO sensors VALUES (9999, 150, 'lab')")
                  .ok());
  auto same_as_direct = [&] {
    auto direct = client.Query(Queries()[0]);
    ASSERT_TRUE(direct.ok());
    auto prepared = client.ExecutePrepared(
        *handle, {Value::Int(100), Value::Int(200)});
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto a = EncodeResult(*direct);
    auto b = EncodeResult(*prepared);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_NE(*b, expected[0]) << "the inserted row is missing";
  };
  const int64_t hits_before = counters["prepared_cache_hits"];
  same_as_direct();
  counters = ServerStatus(&client);
  EXPECT_EQ(counters["prepared_cache_misses"], misses_before);
  EXPECT_EQ(counters["prepared_cache_hits"], hits_before + 1);

  // DDL invalidates it: the next execution recompiles.
  ASSERT_TRUE(client.Query("ALTER TABLE sensors COMPRESS").ok());
  same_as_direct();
  counters = ServerStatus(&client);
  EXPECT_EQ(counters["prepared_cache_misses"], misses_before + 1);

  // Executing an unknown statement id is a typed error; session survives.
  auto unknown = client.ExecutePrepared(
      server::PreparedHandle{0xDEAD, 0, {}}, {});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.Query("SELECT COUNT(*) FROM sensors").ok());
}

TEST_F(ServerTest, StatusReportsReactorAndPreparedRows) {
  StartServer();
  Client client = Connect();
  auto counters = ServerStatus(&client);
  for (const char* key :
       {"epoll_sessions", "pipelined_in_flight", "prepared_cache_entries",
        "prepared_cache_hits", "prepared_cache_misses",
        "prepared_cache_evictions"}) {
    ASSERT_EQ(counters.count(key), 1u) << key;
  }
  // The probing session itself is reactor-owned; nothing is pipelined
  // or prepared yet.
  EXPECT_EQ(counters["epoll_sessions"], 1);
  EXPECT_EQ(counters["pipelined_in_flight"], 0);
  EXPECT_EQ(counters["prepared_cache_entries"], 0);
  EXPECT_EQ(counters["prepared_cache_evictions"], 0);
}

/// The drain satellite on the epoll path: a pipelined client that fills
/// its pipeline and then never reads must not block Stop() beyond the
/// configured force deadline.
TEST_F(ServerTest, NonReadingPipelinedClientDoesNotBlockStop) {
  ServerConfig config;
  config.drain_force_millis = 300;
  StartServer(config);
  Client client = Connect();
  // Large results (full table scans) so the responses cannot all fit in
  // the kernel socket buffers of a non-reading client.
  for (int i = 0; i < 16; ++i) {
    auto seq = client.QueryAsync("SELECT id, temp, room FROM sensors");
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  server_->Stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000) << "Stop() must be bounded";
  EXPECT_EQ(server_->stats().sessions_open, 0);
  EXPECT_EQ(server_->stats().epoll_sessions, 0u);
}

// ------------------------------------------- transactions over the wire --

/// Each connection carries its own engine session: a transaction opened
/// with the client helpers stays invisible to other connections until
/// Commit(), and Rollback() leaves no trace.
TEST_F(ServerTest, TransactionsOverWire) {
  StartServer();
  Client writer = Connect();
  Client reader = Connect();

  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(
      writer.Query("INSERT INTO sensors VALUES (9000, 1, 'lab')").ok());
  auto own = writer.Query("SELECT COUNT(*) FROM sensors");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->columns[0]->ValueAt<int64_t>(0), kRows + 1);
  auto other = reader.Query("SELECT COUNT(*) FROM sensors");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->columns[0]->ValueAt<int64_t>(0), kRows);
  ASSERT_TRUE(writer.Commit().ok());
  auto after = reader.Query("SELECT COUNT(*) FROM sensors");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->columns[0]->ValueAt<int64_t>(0), kRows + 1);

  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(writer.Query("DELETE FROM sensors WHERE id = 9000").ok());
  ASSERT_TRUE(writer.Rollback().ok());
  auto undone = reader.Query("SELECT COUNT(*) FROM sensors");
  ASSERT_TRUE(undone.ok());
  EXPECT_EQ(undone->columns[0]->ValueAt<int64_t>(0), kRows + 1);

  auto counters = ServerStatus(&reader);
  EXPECT_GE(counters["txn_begun"], 2);
  EXPECT_GE(counters["txn_committed"], 1);
  EXPECT_GE(counters["txn_rolled_back"], 1);
  EXPECT_EQ(counters["txn_active"], 0);
}

/// Hostile statement sequences are typed errors, never session-fatal:
/// COMMIT/ROLLBACK without BEGIN, and BEGIN inside an open transaction
/// (the original transaction stays open and intact).
TEST_F(ServerTest, HostileTransactionSequencesAreTypedErrors) {
  StartServer();
  Client client = Connect();
  EXPECT_EQ(client.Commit().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Rollback().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(client.Begin().ok());
  EXPECT_EQ(client.Begin().code(), StatusCode::kInvalidArgument);
  // The first transaction survived the rejected second BEGIN.
  ASSERT_TRUE(
      client.Query("INSERT INTO sensors VALUES (9100, 2, 'lab')").ok());
  ASSERT_TRUE(client.Commit().ok());
  auto r = client.Query("SELECT COUNT(*) FROM sensors WHERE id = 9100");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 1);
}

/// Write-write conflicts surface over the wire as the typed kConflict —
/// distinguishable from parse/plan errors so drivers can auto-retry. The
/// losing connection survives and can retry after the winner commits.
TEST_F(ServerTest, WriteConflictIsTypedOverWire) {
  StartServer();
  Client a = Connect();
  Client b = Connect();
  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.Query("INSERT INTO sensors VALUES (9200, 3, 'lab')").ok());
  auto clash = b.Query("INSERT INTO sensors VALUES (9201, 4, 'lab')");
  EXPECT_EQ(clash.status().code(), StatusCode::kConflict)
      << clash.status().ToString();
  ASSERT_TRUE(a.Commit().ok());
  // Retry after the winner committed: the claim is released.
  EXPECT_TRUE(b.Query("INSERT INTO sensors VALUES (9201, 4, 'lab')").ok());
  auto counters = ServerStatus(&b);
  EXPECT_GE(counters["txn_conflicts"], 1);
}

/// A connection dropped mid-transaction is auto-rolled back server-side:
/// pending rows vanish and the write claim is released, so other
/// connections are not wedged by a vanished client.
TEST_F(ServerTest, DisconnectMidTransactionAutoRollsBack) {
  StartServer();
  {
    Client doomed = Connect();
    ASSERT_TRUE(doomed.Begin().ok());
    ASSERT_TRUE(
        doomed.Query("INSERT INTO sensors VALUES (9300, 5, 'lab')").ok());
  }  // socket closes with the transaction open
  Client survivor = Connect();
  // The abort runs asynchronously after the disconnect; poll bounded.
  bool released = false;
  for (int i = 0; i < 500 && !released; ++i) {
    auto w = survivor.Query("INSERT INTO sensors VALUES (9301, 6, 'lab')");
    if (w.ok()) {
      released = true;
      break;
    }
    ASSERT_EQ(w.status().code(), StatusCode::kConflict);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(released) << "disconnect did not release the write claim";
  auto gone = survivor.Query("SELECT COUNT(*) FROM sensors WHERE id = 9300");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->columns[0]->ValueAt<int64_t>(0), 0);
  auto counters = ServerStatus(&survivor);
  EXPECT_GE(counters["txn_rolled_back"], 1);
}

/// caps=0 byte-compat: a client that never sends Caps can still drive
/// BEGIN/COMMIT through plain untagged kQuery frames — the transaction
/// surface needs no new frame types or capability bits.
TEST_F(ServerTest, OldClientRunsTransactionsWithPlainFrames) {
  StartServer();
  RawConn conn = RawConn::Open(server_->port());
  conn.ExpectHello();
  for (const char* sql :
       {"BEGIN", "INSERT INTO sensors VALUES (9400, 7, 'lab')", "COMMIT",
        "SELECT COUNT(*) FROM sensors WHERE id = 9400"}) {
    conn.Send(server::EncodeFrame(server::FrameType::kQuery, sql));
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.ok()) << sql << ": " << frame.status().ToString();
    EXPECT_EQ(frame->type, server::FrameType::kResult) << sql;
  }
  conn.Send(server::EncodeFrame(server::FrameType::kClose, ""));
  EXPECT_TRUE(conn.ReadUntilEof());
}

}  // namespace
}  // namespace mammoth
