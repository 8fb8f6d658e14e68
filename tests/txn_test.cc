// Multi-statement transactions (§14): MVCC snapshot isolation over the
// delta-BAT storage, BEGIN/COMMIT/ROLLBACK through the SQL engine, and
// first-writer-wins write-write conflict detection.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "parallel/exec_context.h"
#include "parallel/task_pool.h"
#include "sql/engine.h"
#include "txn/txn.h"
#include "wal/db.h"

namespace mammoth::sql {
namespace {

int64_t ScalarInt(const mal::QueryResult& r) {
  EXPECT_EQ(r.RowCount(), 1u);
  return r.columns[0]->ValueAt<int64_t>(0);
}

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.Execute("CREATE TABLE t (k INT, v BIGINT)").ok());
    ASSERT_TRUE(engine_
                    .Execute("INSERT INTO t VALUES (1, 10), (2, 20), "
                             "(3, 30), (4, 40)")
                    .ok());
  }

  Result<mal::QueryResult> Run(const SessionPtr& s, const std::string& sql) {
    return engine_.ExecuteSession(s, sql);
  }
  int64_t Sum(const SessionPtr& s) {
    auto r = Run(s, "SELECT sum(v) FROM t");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->RowCount(), 1u);
    return r->columns[0]->ValueAt<int64_t>(0);
  }
  int64_t Count(const SessionPtr& s) {
    auto r = Run(s, "SELECT count(*) FROM t");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return ScalarInt(*r);
  }

  Engine engine_;
};

// --- Statement surface -----------------------------------------------------

TEST_F(TxnTest, BeginCommitRollbackParse) {
  SessionPtr s = engine_.CreateSession();
  EXPECT_TRUE(Run(s, "BEGIN").ok());
  EXPECT_TRUE(Run(s, "COMMIT").ok());
  EXPECT_TRUE(Run(s, "BEGIN TRANSACTION").ok());
  EXPECT_TRUE(Run(s, "ROLLBACK").ok());
  EXPECT_TRUE(Run(s, "START TRANSACTION").ok());
  EXPECT_TRUE(Run(s, "COMMIT WORK").ok());
  EXPECT_TRUE(Run(s, "begin work").ok());
  EXPECT_TRUE(Run(s, "rollback transaction").ok());
  // START alone is not a statement; trailing garbage is rejected.
  EXPECT_FALSE(Run(s, "START").ok());
  EXPECT_FALSE(Run(s, "BEGIN EXTRA").ok());
}

TEST_F(TxnTest, CommitWithoutBeginFails) {
  SessionPtr s = engine_.CreateSession();
  auto r = Run(s, "COMMIT");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Run(s, "ROLLBACK").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TxnTest, DoubleBeginFails) {
  SessionPtr s = engine_.CreateSession();
  ASSERT_TRUE(Run(s, "BEGIN").ok());
  EXPECT_FALSE(Run(s, "BEGIN").ok());
  // The original transaction is still open and functional.
  EXPECT_TRUE(s->in_transaction());
  EXPECT_TRUE(Run(s, "COMMIT").ok());
}

// --- Snapshot isolation ----------------------------------------------------

TEST_F(TxnTest, ReaderDoesNotSeeUncommittedWrites) {
  SessionPtr writer = engine_.CreateSession();
  SessionPtr reader = engine_.CreateSession();
  ASSERT_TRUE(Run(writer, "BEGIN").ok());
  ASSERT_TRUE(Run(writer, "INSERT INTO t VALUES (5, 50)").ok());
  // Plain (auto-commit) reader: pending rows are invisible.
  EXPECT_EQ(Count(reader), 4);
  EXPECT_EQ(Sum(reader), 100);
  // The writer itself sees its own pending rows.
  EXPECT_EQ(Count(writer), 5);
  EXPECT_EQ(Sum(writer), 150);
  ASSERT_TRUE(Run(writer, "COMMIT").ok());
  EXPECT_EQ(Count(reader), 5);
}

TEST_F(TxnTest, SnapshotReaderDoesNotSeeLaterCommits) {
  SessionPtr writer = engine_.CreateSession();
  SessionPtr reader = engine_.CreateSession();
  ASSERT_TRUE(Run(reader, "BEGIN").ok());
  EXPECT_EQ(Count(reader), 4);  // snapshot pinned here
  // A whole transaction commits elsewhere…
  ASSERT_TRUE(Run(writer, "BEGIN").ok());
  ASSERT_TRUE(Run(writer, "INSERT INTO t VALUES (6, 60)").ok());
  ASSERT_TRUE(Run(writer, "DELETE FROM t WHERE k = 1").ok());
  ASSERT_TRUE(Run(writer, "COMMIT").ok());
  // …and an auto-commit statement too.
  ASSERT_TRUE(engine_.Execute("INSERT INTO t VALUES (7, 70)").ok());
  // The open snapshot still reads the BEGIN-time state, repeatably.
  EXPECT_EQ(Count(reader), 4);
  EXPECT_EQ(Sum(reader), 100);
  auto row = Run(reader, "SELECT v FROM t WHERE k = 1");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->RowCount(), 1u);
  ASSERT_TRUE(Run(reader, "COMMIT").ok());
  // After the transaction, the latest state appears.
  EXPECT_EQ(Count(reader), 5);  // 4 - 1 deleted + 2 inserted
}

TEST_F(TxnTest, UpdateVisibilityIsTransactional) {
  SessionPtr writer = engine_.CreateSession();
  SessionPtr reader = engine_.CreateSession();
  ASSERT_TRUE(Run(writer, "BEGIN").ok());
  ASSERT_TRUE(Run(writer, "UPDATE t SET v = 1000 WHERE k = 2").ok());
  // Reader sees the old image; writer sees the new one.
  auto old_img = Run(reader, "SELECT v FROM t WHERE k = 2");
  ASSERT_TRUE(old_img.ok());
  EXPECT_EQ(old_img->columns[0]->ValueAt<int64_t>(0), 20);
  auto new_img = Run(writer, "SELECT v FROM t WHERE k = 2");
  ASSERT_TRUE(new_img.ok());
  EXPECT_EQ(new_img->columns[0]->ValueAt<int64_t>(0), 1000);
  ASSERT_TRUE(Run(writer, "COMMIT").ok());
  auto committed = Run(reader, "SELECT v FROM t WHERE k = 2");
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->columns[0]->ValueAt<int64_t>(0), 1000);
}

TEST_F(TxnTest, ReadersDoNotBlockBehindStalledWriter) {
  SessionPtr writer = engine_.CreateSession();
  ASSERT_TRUE(Run(writer, "BEGIN").ok());
  ASSERT_TRUE(Run(writer, "INSERT INTO t VALUES (9, 90)").ok());
  // The writer now sits mid-transaction holding t's *write* claim but no
  // engine lock. Readers on other sessions must complete regardless;
  // a a regression here deadlocks the test (guarded by a watchdog).
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    for (int i = 0; i < 10000 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(done.load()) << "reader blocked behind a stalled writer";
  });
  SessionPtr reader = engine_.CreateSession();
  EXPECT_EQ(Count(reader), 4);
  done.store(true);
  watchdog.join();
  ASSERT_TRUE(Run(writer, "ROLLBACK").ok());
}

// --- Conflicts -------------------------------------------------------------

TEST_F(TxnTest, WriteWriteConflictIsTyped) {
  SessionPtr a = engine_.CreateSession();
  SessionPtr b = engine_.CreateSession();
  ASSERT_TRUE(Run(a, "BEGIN").ok());
  ASSERT_TRUE(Run(a, "UPDATE t SET v = 11 WHERE k = 1").ok());
  // First writer wins: the second transaction's write is refused with
  // the typed kConflict, not a generic error.
  ASSERT_TRUE(Run(b, "BEGIN").ok());
  auto clash = Run(b, "UPDATE t SET v = 12 WHERE k = 1");
  EXPECT_EQ(clash.status().code(), StatusCode::kConflict)
      << clash.status().ToString();
  // The losing transaction is poisoned: COMMIT rolls back and surfaces
  // the conflict.
  auto commit_b = Run(b, "COMMIT");
  EXPECT_EQ(commit_b.status().code(), StatusCode::kConflict);
  EXPECT_FALSE(b->in_transaction());
  // The winner commits fine.
  EXPECT_TRUE(Run(a, "COMMIT").ok());
  EXPECT_GE(engine_.txn_stats().conflicts, 1u);
}

TEST_F(TxnTest, AutoCommitConflictsWithOpenTransaction) {
  SessionPtr a = engine_.CreateSession();
  ASSERT_TRUE(Run(a, "BEGIN").ok());
  ASSERT_TRUE(Run(a, "INSERT INTO t VALUES (5, 50)").ok());
  // Auto-commit DML on another session hits the table claim.
  auto clash = engine_.Execute("INSERT INTO t VALUES (6, 60)");
  EXPECT_EQ(clash.status().code(), StatusCode::kConflict);
  ASSERT_TRUE(Run(a, "COMMIT").ok());
  // Claim released: auto-commit works again.
  EXPECT_TRUE(engine_.Execute("INSERT INTO t VALUES (6, 60)").ok());
}

TEST_F(TxnTest, PoisonedTransactionRejectsStatements) {
  SessionPtr a = engine_.CreateSession();
  SessionPtr b = engine_.CreateSession();
  ASSERT_TRUE(Run(a, "BEGIN").ok());
  ASSERT_TRUE(Run(a, "DELETE FROM t WHERE k = 3").ok());
  ASSERT_TRUE(Run(b, "BEGIN").ok());
  EXPECT_EQ(Run(b, "DELETE FROM t WHERE k = 3").status().code(),
            StatusCode::kConflict);
  // Everything after the failure is refused until ROLLBACK.
  EXPECT_FALSE(Run(b, "SELECT count(*) FROM t").ok());
  EXPECT_FALSE(Run(b, "INSERT INTO t VALUES (8, 80)").ok());
  EXPECT_TRUE(Run(b, "ROLLBACK").ok());
  EXPECT_TRUE(Run(b, "SELECT count(*) FROM t").ok());
  ASSERT_TRUE(Run(a, "ROLLBACK").ok());
}

// --- Rollback --------------------------------------------------------------

TEST_F(TxnTest, RollbackLeavesTableByteIdentical) {
  // Reference image of the table before the transaction.
  Catalog before;
  {
    auto t = engine_.catalog()->Get("t");
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(before.Register((*t)->Snapshot()).ok());
  }
  SessionPtr s = engine_.CreateSession();
  ASSERT_TRUE(Run(s, "BEGIN").ok());
  ASSERT_TRUE(Run(s, "INSERT INTO t VALUES (5, 50), (6, 60)").ok());
  ASSERT_TRUE(Run(s, "DELETE FROM t WHERE k = 2").ok());
  ASSERT_TRUE(Run(s, "UPDATE t SET v = 999 WHERE k = 1").ok());
  ASSERT_TRUE(Run(s, "ROLLBACK").ok());
  // Physical truncation: the live table matches the pre-BEGIN image
  // cell for cell.
  EXPECT_TRUE(wal::CompareCatalogs(before, *engine_.catalog()).ok());
  EXPECT_EQ(Count(s), 4);
  EXPECT_EQ(Sum(s), 100);
}

TEST_F(TxnTest, AbortSessionRollsBackOpenTransaction) {
  SessionPtr s = engine_.CreateSession();
  ASSERT_TRUE(Run(s, "BEGIN").ok());
  ASSERT_TRUE(Run(s, "INSERT INTO t VALUES (5, 50)").ok());
  engine_.AbortSession(s);  // the disconnect path
  EXPECT_FALSE(s->in_transaction());
  EXPECT_EQ(Count(s), 4);
  // The write claim is gone: other writers proceed.
  EXPECT_TRUE(engine_.Execute("INSERT INTO t VALUES (9, 90)").ok());
  EXPECT_GE(engine_.txn_stats().rolled_back, 1u);
}

// --- DDL and admin interactions -------------------------------------------

TEST_F(TxnTest, DdlInsideTransactionRefused) {
  SessionPtr s = engine_.CreateSession();
  ASSERT_TRUE(Run(s, "BEGIN").ok());
  EXPECT_FALSE(Run(s, "CREATE TABLE u (x INT)").ok());
  // The refusal poisons the transaction (uniform abort-on-error).
  EXPECT_FALSE(Run(s, "SELECT count(*) FROM t").ok());
  EXPECT_TRUE(Run(s, "ROLLBACK").ok());
  EXPECT_TRUE(engine_.Execute("CREATE TABLE u (x INT)").ok());
}

TEST_F(TxnTest, AlterWaitsForTransactionQuiescence) {
  SessionPtr s = engine_.CreateSession();
  ASSERT_TRUE(Run(s, "BEGIN").ok());
  auto alter = engine_.Execute("ALTER TABLE t COMPRESS");
  EXPECT_EQ(alter.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(Run(s, "COMMIT").ok());
  EXPECT_TRUE(engine_.Execute("ALTER TABLE t COMPRESS").ok());
}

TEST_F(TxnTest, TxnStatsCount) {
  SessionPtr s = engine_.CreateSession();
  ASSERT_TRUE(Run(s, "BEGIN").ok());
  ASSERT_TRUE(Run(s, "INSERT INTO t VALUES (5, 50)").ok());
  EXPECT_EQ(engine_.txn_stats().active, 1u);
  ASSERT_TRUE(Run(s, "COMMIT").ok());
  ASSERT_TRUE(Run(s, "BEGIN").ok());
  ASSERT_TRUE(Run(s, "ROLLBACK").ok());
  const txn::TxnStats stats = engine_.txn_stats();
  EXPECT_GE(stats.begun, 2u);
  EXPECT_GE(stats.committed, 1u);
  EXPECT_GE(stats.rolled_back, 1u);
  EXPECT_EQ(stats.active, 0u);
}

// --- Prepared statements join the session's transaction --------------------

TEST_F(TxnTest, PreparedStatementsUseSessionSnapshot) {
  SessionPtr writer = engine_.CreateSession();
  SessionPtr reader = engine_.CreateSession();
  auto count_stmt = engine_.Prepare("SELECT count(*) FROM t");
  ASSERT_TRUE(count_stmt.ok());
  auto ins_stmt = engine_.Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(ins_stmt.ok());
  ASSERT_TRUE(Run(reader, "BEGIN").ok());
  auto before = engine_.ExecutePreparedSession(reader, (*count_stmt)->id, {});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(ScalarInt(*before), 4);
  // Prepared DML inside the writer's transaction stays pending…
  ASSERT_TRUE(Run(writer, "BEGIN").ok());
  ASSERT_TRUE(engine_
                  .ExecutePreparedSession(writer, (*ins_stmt)->id,
                                          {Value::Int(5), Value::Int(50)})
                  .ok());
  ASSERT_TRUE(Run(writer, "COMMIT").ok());
  // …and the reader's prepared SELECT still reads its pinned snapshot.
  auto after = engine_.ExecutePreparedSession(reader, (*count_stmt)->id, {});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ScalarInt(*after), 4);
  ASSERT_TRUE(Run(reader, "COMMIT").ok());
  auto latest = engine_.ExecutePreparedSession(reader, (*count_stmt)->id, {});
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(ScalarInt(*latest), 5);
}

// --- Determinism across pool sizes ----------------------------------------

TEST(TxnDeterminismTest, SnapshotReadsBitIdenticalAcrossPools) {
  // One engine, one open reader snapshot with concurrent committed noise;
  // the same SELECT must come back bit-identical under pools 1/2/4/8.
  Engine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE d (k INT, v BIGINT)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO d VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i * 7) + ")")
                    .ok());
  }
  SessionPtr reader = engine.CreateSession();
  ASSERT_TRUE(engine.ExecuteSession(reader, "BEGIN").ok());
  // Pin the snapshot, then mutate underneath it.
  ASSERT_TRUE(engine.ExecuteSession(reader, "SELECT count(*) FROM d").ok());
  ASSERT_TRUE(engine.Execute("DELETE FROM d WHERE k < 10").ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO d VALUES (100, 700)").ok());

  const std::string q =
      "SELECT k, v FROM d WHERE v >= 70 ORDER BY k";
  std::vector<std::vector<int64_t>> images;
  for (int threads : {1, 2, 4, 8}) {
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);
    auto r = engine.ExecuteSession(reader, q, ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<int64_t> img;
    for (size_t i = 0; i < r->RowCount(); ++i) {
      img.push_back(r->columns[0]->ValueAt<int32_t>(i));
      img.push_back(r->columns[1]->ValueAt<int64_t>(i));
    }
    images.push_back(std::move(img));
  }
  for (size_t i = 1; i < images.size(); ++i) {
    EXPECT_EQ(images[i], images[0]) << "pool size diverged";
  }
  // The snapshot ignored the concurrent DML entirely.
  ASSERT_FALSE(images[0].empty());
  EXPECT_EQ(images[0].size(), 2u * 40u);  // k in [10,50): v >= 70
  ASSERT_TRUE(engine.ExecuteSession(reader, "COMMIT").ok());
}

// --- Concurrency storm (ASan/TSan fodder) ----------------------------------

TEST(TxnConcurrencyTest, WritersAndReadersRace) {
  Engine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE s (k INT, v BIGINT)").ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO s VALUES (0, 0)").ok());
  constexpr int kWriters = 8;
  constexpr int kReaders = 8;
  constexpr int kRounds = 25;
  std::atomic<int> committed{0};
  std::atomic<int> conflicted{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      SessionPtr s = engine.CreateSession();
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_TRUE(engine.ExecuteSession(s, "BEGIN").ok());
        auto ins = engine.ExecuteSession(
            s, "INSERT INTO s VALUES (" + std::to_string(w) + ", " +
                   std::to_string(i) + ")");
        if (!ins.ok()) {
          ASSERT_EQ(ins.status().code(), StatusCode::kConflict)
              << ins.status().ToString();
          ++conflicted;
          ASSERT_TRUE(engine.ExecuteSession(s, "ROLLBACK").ok());
          continue;
        }
        auto commit = engine.ExecuteSession(s, "COMMIT");
        if (commit.ok()) {
          ++committed;
        } else {
          ASSERT_EQ(commit.status().code(), StatusCode::kConflict);
          ++conflicted;
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      SessionPtr s = engine.CreateSession();
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_TRUE(engine.ExecuteSession(s, "BEGIN").ok());
        auto c1 = engine.ExecuteSession(s, "SELECT count(*) FROM s");
        ASSERT_TRUE(c1.ok()) << c1.status().ToString();
        auto c2 = engine.ExecuteSession(s, "SELECT count(*) FROM s");
        ASSERT_TRUE(c2.ok()) << c2.status().ToString();
        // Repeatable read inside the transaction.
        ASSERT_EQ(c1->columns[0]->ValueAt<int64_t>(0),
                  c2->columns[0]->ValueAt<int64_t>(0));
        ASSERT_TRUE(engine.ExecuteSession(s, "COMMIT").ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every commit that was acknowledged is visible; conflicted rounds
  // left nothing behind.
  auto final_count = engine.Execute("SELECT count(*) FROM s");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->columns[0]->ValueAt<int64_t>(0),
            1 + committed.load());
  EXPECT_EQ(engine.txn_stats().active, 0u);
}

/// Reads over a COMPRESSED table's (main image, delta) pair while
/// auto-commit writers append to the delta: 4 reader sessions (two of
/// them inside snapshot transactions) run beside 2 writers. Every
/// COUNT/SUM must be the generator's answer for some committed prefix of
/// each writer's rows, an auto-commit reader
/// never sees the prefix shrink, and the final read sees every row.
TEST(TxnConcurrencyTest, DeltaAwareReadsUnderConcurrentInserts) {
  constexpr int kMainRows = 8192;
  constexpr int kWriters = 2;
  constexpr int kInserts = 40;
  constexpr int kReaders = 4;
  constexpr int kRounds = 30;
  constexpr int kWriterKey = 100000;
  auto writer_v = [](int w, int i) -> int64_t {
    return int64_t{w + 1} * 1000003 + int64_t{i} * 7;
  };

  Engine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE f (k INT, v BIGINT) COMPRESSED")
                  .ok());
  int64_t main_sum = 0;
  std::string rows = "INSERT INTO f VALUES ";
  for (int i = 0; i < kMainRows; ++i) {
    const int64_t v = (int64_t{i} * 7919) % 100000;
    main_sum += v;
    rows += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
            std::to_string(v) + ")";
  }
  ASSERT_TRUE(engine.Execute(rows).ok());
  ASSERT_TRUE(engine.Execute("ALTER TABLE f COMPRESS").ok());
  auto table = engine.catalog()->Get("f");
  ASSERT_TRUE(table.ok());
  ASSERT_NE((*table)->MainImage(1).comp, nullptr);

  // (count, sum) of writer rows matches prefixes (a, b) of the writers.
  std::vector<std::vector<int64_t>> prefix_sum(
      kWriters, std::vector<int64_t>(kInserts + 1, 0));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kInserts; ++i) {
      prefix_sum[w][i + 1] = prefix_sum[w][i] + writer_v(w, i);
    }
  }
  auto committed_prefix = [&](int64_t count, int64_t sum) {
    for (int64_t a = 0; a <= kInserts && a <= count; ++a) {
      const int64_t b = count - a;
      if (b <= kInserts && prefix_sum[0][a] + prefix_sum[1][b] == sum) {
        return true;
      }
    }
    return false;
  };

  auto count_sum = [&](const SessionPtr& s, const std::string& where,
                       const parallel::ExecContext& ctx) {
    auto res = engine.ExecuteSession(
        s, "SELECT COUNT(*), SUM(v) FROM f WHERE " + where, ctx);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (!res.ok() || res->RowCount() != 1) {
      return std::pair<int64_t, int64_t>{-1, -1};
    }
    return std::pair<int64_t, int64_t>{res->columns[0]->ValueAt<int64_t>(0),
                                       res->columns[1]->ValueAt<int64_t>(0)};
  };

  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Each writer commits on its own session, so the two writers'
      // INSERTs really run at once.
      SessionPtr s = engine.CreateSession();
      for (int i = 0; i < kInserts; ++i) {
        auto r = engine.ExecuteSession(
            s,
            "INSERT INTO f VALUES (" +
            std::to_string(kWriterKey + w * kInserts + i) + ", " +
            std::to_string(writer_v(w, i)) + ")");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
      --writers_left;
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      SessionPtr s = engine.CreateSession();
      parallel::TaskPool pool(r % 2 == 0 ? 1 : 2);
      const parallel::ExecContext ctx(&pool);
      const bool snapshot = r % 2 == 1;
      int64_t last_count = 0;
      // Keep reading while the writers run, so reads overlap inserts.
      for (int round = 0; round < kRounds || writers_left.load() > 0;
           ++round) {
        if (snapshot) {
          ASSERT_TRUE(engine.ExecuteSession(s, "BEGIN").ok());
        }
        // Main and delta: every main row plus the writers' prefixes.
        const auto all = count_sum(s, "k >= 0", ctx);
        EXPECT_TRUE(all.first >= kMainRows &&
                    committed_prefix(all.first - kMainRows,
                                     all.second - main_sum))
            << "count " << all.first << " sum " << all.second;
        // Delta only.
        const auto tail =
            count_sum(s, "k >= " + std::to_string(kWriterKey), ctx);
        EXPECT_TRUE(committed_prefix(tail.first, tail.second))
            << "count " << tail.first << " sum " << tail.second;
        if (snapshot) {
          // One snapshot: both reads saw the same prefix.
          EXPECT_EQ(tail.first, all.first - kMainRows);
          EXPECT_EQ(tail.second, all.second - main_sum);
          ASSERT_TRUE(engine.ExecuteSession(s, "COMMIT").ok());
        } else {
          // Each statement reads the latest commit: never fewer rows.
          EXPECT_GE(tail.first, last_count);
          last_count = tail.first;
        }
        // Readers take the engine lock shared and are preferred over a
        // waiting writer: pause so the inserts get their turn.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ((*table)->PendingInsertCount(),
            static_cast<size_t>(kWriters * kInserts));
  const auto final_all = count_sum(engine.CreateSession(), "k >= 0",
                                   parallel::ExecContext::Serial());
  EXPECT_EQ(final_all.first, kMainRows + kWriters * kInserts);
  EXPECT_EQ(final_all.second,
            main_sum + prefix_sum[0][kInserts] + prefix_sum[1][kInserts]);
}

/// The dictionary counterpart of DeltaAwareReadsUnderConcurrentInserts:
/// `tag` is a dictionary-only TEXT column, and writers insert words the
/// dictionary lacks, so every insert interns into the heap that the
/// dictionary built and readers' projections point into. Readers run
/// `tag =` (main rows only), `LIKE` (delta rows only) and a projection of
/// `tag` over main and delta rows; the projected strings are checked once
/// the writers are done, when the heap no longer grows.
TEST(TxnConcurrencyTest, DeltaAwareDictTextReadsUnderConcurrentInserts) {
  constexpr int kMainRows = 8192;
  constexpr int kWriters = 2;
  constexpr int kInserts = 40;
  constexpr int kReaders = 4;
  constexpr int kRounds = 30;
  constexpr int kWriterKey = 100000;
  constexpr int kTail = 64;  // main rows the projection reads
  auto main_word = [](int k) { return "m" + std::to_string(k % 10); };
  auto writer_word = [](int k) {
    return "x" + std::to_string((k - kWriterKey) / kInserts) + "_" +
           std::to_string((k - kWriterKey) % kInserts);
  };

  Engine engine;
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE f (k INT, tag TEXT) COMPRESSED").ok());
  std::string rows = "INSERT INTO f VALUES ";
  int64_t m3 = 0;
  for (int i = 0; i < kMainRows; ++i) {
    rows += (i == 0 ? "(" : ", (") + std::to_string(i) + ", '" +
            main_word(i) + "')";
    m3 += i % 10 == 3 ? 1 : 0;
  }
  ASSERT_TRUE(engine.Execute(rows).ok());
  ASSERT_TRUE(engine.Execute("ALTER TABLE f COMPRESS").ok());
  auto table = engine.catalog()->Get("f");
  ASSERT_TRUE(table.ok());
  ASSERT_NE((*table)->MainImage(1).sdict, nullptr);
  ASSERT_EQ((*table)->MainColumn(1)->Count(), 0u);

  auto scalar = [&](const SessionPtr& s, const std::string& sql,
                    const parallel::ExecContext& ctx) -> int64_t {
    auto res = engine.ExecuteSession(s, sql, ctx);
    EXPECT_TRUE(res.ok()) << sql << ": " << res.status().ToString();
    return res.ok() && res->RowCount() == 1
               ? res->columns[0]->ValueAt<int64_t>(0)
               : -1;
  };

  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      SessionPtr s = engine.CreateSession();
      for (int i = 0; i < kInserts; ++i) {
        const int k = kWriterKey + w * kInserts + i;
        auto r = engine.ExecuteSession(
            s, "INSERT INTO f VALUES (" + std::to_string(k) + ", '" +
                   writer_word(k) + "')");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
      --writers_left;
    });
  }
  // Each reader keeps its projections to check after the writers finish.
  std::vector<std::vector<mal::QueryResult>> kept(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      SessionPtr s = engine.CreateSession();
      parallel::TaskPool pool(r % 2 == 0 ? 1 : 2);
      const parallel::ExecContext ctx(&pool);
      const bool snapshot = r % 2 == 1;
      int64_t last_new = 0;
      for (int round = 0; round < kRounds || writers_left.load() > 0;
           ++round) {
        if (snapshot) {
          ASSERT_TRUE(engine.ExecuteSession(s, "BEGIN").ok());
        }
        // Main rows only: the writers never insert an `m` word.
        EXPECT_EQ(scalar(s, "SELECT COUNT(*) FROM f WHERE tag = 'm3'", ctx),
                  m3);
        // Delta rows only: every committed writer row so far.
        const int64_t fresh =
            scalar(s, "SELECT COUNT(*) FROM f WHERE tag LIKE 'x%'", ctx);
        EXPECT_TRUE(fresh >= 0 && fresh <= kWriters * kInserts) << fresh;
        auto proj = engine.ExecuteSession(
            s,
            "SELECT k, tag FROM f WHERE k >= " +
                std::to_string(kMainRows - kTail),
            ctx);
        ASSERT_TRUE(proj.ok()) << proj.status().ToString();
        // The tail of the main rows plus the writer rows the statement
        // sees: the ones the LIKE saw in a snapshot, at least those
        // otherwise.
        const int64_t projected = static_cast<int64_t>(proj->RowCount());
        if (snapshot) {
          EXPECT_EQ(projected, kTail + fresh);
        } else {
          EXPECT_GE(projected, kTail + fresh);
          EXPECT_LE(projected, kTail + kWriters * kInserts);
        }
        if (snapshot) {
          ASSERT_TRUE(engine.ExecuteSession(s, "COMMIT").ok());
        } else {
          // Each statement reads the latest commit: never fewer rows.
          EXPECT_GE(fresh, last_new);
          last_new = fresh;
        }
        kept[r].push_back(*std::move(proj));
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The heap is quiet now: every kept projection names the right words.
  for (const auto& results : kept) {
    for (const mal::QueryResult& res : results) {
      ASSERT_EQ(res.columns.size(), 2u);
      for (size_t i = 0; i < res.RowCount(); ++i) {
        const int k = res.columns[0]->ValueAt<int32_t>(i);
        EXPECT_EQ(res.columns[1]->StringAt(i),
                  k < kMainRows ? main_word(k) : writer_word(k))
            << "k " << k;
      }
    }
  }
  EXPECT_EQ(scalar(engine.CreateSession(),
                   "SELECT COUNT(*) FROM f WHERE tag LIKE 'x%'",
                   parallel::ExecContext::Serial()),
            kWriters * kInserts);
}

}  // namespace
}  // namespace mammoth::sql
