#include "recycle/recycler.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "compress/compressed_kernels.h"
#include "core/table.h"
#include "mal/interpreter.h"
#include "parallel/task_pool.h"
#include "session_threads.h"
#include "sql/engine.h"

namespace mammoth::recycle {
namespace {

using mal::Interpreter;
using mal::OpCode;
using mal::Program;

CachedVal MakeVal(size_t n) {
  CachedVal v;
  v.image.bat = Bat::New(PhysType::kInt32);
  v.image.bat->Resize(n);
  return v;
}

TEST(RecyclerTest, ExactHitAfterInsert) {
  Recycler rec(1 << 20);
  std::vector<CachedVal> outs;
  EXPECT_FALSE(rec.Lookup(42, &outs));
  rec.Insert(42, {MakeVal(10)}, 0.001);
  ASSERT_TRUE(rec.Lookup(42, &outs));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].image.bat->Count(), 10u);
  EXPECT_EQ(rec.stats().hits, 1u);
  EXPECT_EQ(rec.stats().misses, 1u);
}

TEST(RecyclerTest, CapacityEvicts) {
  Recycler rec(4096, Policy::kLru);
  // Each 256-int entry is ~1KB; a 4KB budget holds only a few.
  for (uint64_t sig = 0; sig < 32; ++sig) {
    rec.Insert(sig, {MakeVal(256)}, 0.001);
  }
  EXPECT_GT(rec.stats().evictions, 20u);
  EXPECT_LE(rec.stats().bytes, 4096u);
}

TEST(RecyclerTest, LruKeepsRecentlyUsed) {
  Recycler rec(3000, Policy::kLru);  // fits two ~1KB entries
  rec.Insert(1, {MakeVal(256)}, 0.1);
  rec.Insert(2, {MakeVal(256)}, 0.1);
  std::vector<CachedVal> outs;
  ASSERT_TRUE(rec.Lookup(1, &outs));  // touch 1 so 2 becomes LRU
  rec.Insert(3, {MakeVal(256)}, 0.1);  // evicts 2
  EXPECT_TRUE(rec.Lookup(1, &outs));
  EXPECT_FALSE(rec.Lookup(2, &outs));
  EXPECT_TRUE(rec.Lookup(3, &outs));
}

TEST(RecyclerTest, BenefitKeepsExpensiveEntries) {
  Recycler rec(3000, Policy::kBenefit);
  rec.Insert(1, {MakeVal(256)}, 10.0);   // expensive to recompute
  rec.Insert(2, {MakeVal(256)}, 0.0001);  // cheap
  rec.Insert(3, {MakeVal(256)}, 1.0);    // evicts the cheap one
  std::vector<CachedVal> outs;
  EXPECT_TRUE(rec.Lookup(1, &outs));
  EXPECT_FALSE(rec.Lookup(2, &outs));
}

TEST(RecyclerTest, OversizedEntryNotCached) {
  Recycler rec(128);
  rec.Insert(7, {MakeVal(10000)}, 1.0);
  std::vector<CachedVal> outs;
  EXPECT_FALSE(rec.Lookup(7, &outs));
  EXPECT_EQ(rec.stats().entries, 0u);
}

TEST(RecyclerTest, RangeSubsumption) {
  Recycler rec(1 << 20);
  CachedVal wide = MakeVal(100);
  rec.Insert(99, {wide}, 0.5);
  rec.RegisterRange(/*base_sig=*/7, 0.0, 100.0, /*sig=*/99);
  BatPtr cands;
  EXPECT_TRUE(rec.LookupRangeSuperset(7, 10.0, 50.0, &cands));
  EXPECT_EQ(cands.get(), wide.image.bat.get());
  // Not covered: outside or different base.
  EXPECT_FALSE(rec.LookupRangeSuperset(7, -5.0, 50.0, &cands));
  EXPECT_FALSE(rec.LookupRangeSuperset(8, 10.0, 50.0, &cands));
  EXPECT_EQ(rec.stats().subsumption_hits, 1u);
}

TEST(RecyclerTest, TightestSupersetPreferred) {
  Recycler rec(1 << 20);
  CachedVal wide = MakeVal(100);
  CachedVal narrow = MakeVal(10);
  rec.Insert(1, {wide}, 0.5);
  rec.Insert(2, {narrow}, 0.5);
  rec.RegisterRange(7, 0.0, 1000.0, 1);
  rec.RegisterRange(7, 0.0, 100.0, 2);
  BatPtr cands;
  ASSERT_TRUE(rec.LookupRangeSuperset(7, 10.0, 50.0, &cands));
  EXPECT_EQ(cands.get(), narrow.image.bat.get());
}

TEST(RecyclerTest, ClearDropsEverything) {
  Recycler rec(1 << 20);
  rec.Insert(1, {MakeVal(10)}, 0.1);
  rec.RegisterRange(7, 0, 10, 1);
  rec.Clear();
  std::vector<CachedVal> outs;
  EXPECT_FALSE(rec.Lookup(1, &outs));
  BatPtr cands;
  EXPECT_FALSE(rec.LookupRangeSuperset(7, 1, 2, &cands));
  EXPECT_EQ(rec.stats().bytes, 0u);
}

// ------------------------------------------- Integration with the MAL VM --

std::shared_ptr<Catalog> BigCatalog() {
  auto catalog = std::make_shared<Catalog>();
  auto t = Table::Create("facts", {{"k", PhysType::kInt32},
                                   {"v", PhysType::kDouble}});
  EXPECT_TRUE(t.ok());
  for (int i = 0; i < 20000; ++i) {
    EXPECT_TRUE(
        (*t)->Insert({Value::Int(i % 1000), Value::Real(i * 0.5)}).ok());
  }
  EXPECT_TRUE(catalog->Register(*t).ok());
  return catalog;
}

Program SumWhereK(int lo, int hi) {
  Program p;
  const int k = p.Bind("facts", "k");
  const int cands = p.BindCandidates("facts");
  const int sel = p.RangeSelect(k, cands, Value::Int(lo), Value::Int(hi));
  const int v = p.Bind("facts", "v");
  const int proj = p.Project(sel, v);
  const int sum = p.Aggr(OpCode::kAggrSum, proj, -1, -1);
  p.Result(sum, "sum");
  return p;
}

TEST(RecyclerIntegrationTest, RepeatedQueryServedFromCache) {
  auto catalog = BigCatalog();
  Recycler rec(64 << 20);
  Interpreter interp(catalog.get(), &rec);

  Program p1 = SumWhereK(100, 200);
  mal::RunStats s1, s2;
  auto r1 = interp.Run(p1, &s1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(s1.recycled, 0u);

  Program p2 = SumWhereK(100, 200);
  auto r2 = interp.Run(p2, &s2);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(s2.recycled, 0u);
  EXPECT_DOUBLE_EQ(r1->columns[0]->ValueAt<double>(0),
                   r2->columns[0]->ValueAt<double>(0));
}

TEST(RecyclerIntegrationTest, SubsumptionAnswersNarrowerRange) {
  auto catalog = BigCatalog();
  Recycler rec(64 << 20);
  Interpreter interp(catalog.get(), &rec);

  auto wide = interp.Run(SumWhereK(0, 999));
  ASSERT_TRUE(wide.ok());
  const size_t subs_before = rec.stats().subsumption_hits;
  auto narrow = interp.Run(SumWhereK(300, 310));
  ASSERT_TRUE(narrow.ok());
  EXPECT_GT(rec.stats().subsumption_hits, subs_before);

  // And the subsumed answer matches a recycler-free run.
  Interpreter plain(catalog.get());
  auto want = plain.Run(SumWhereK(300, 310));
  ASSERT_TRUE(want.ok());
  EXPECT_DOUBLE_EQ(narrow->columns[0]->ValueAt<double>(0),
                   want->columns[0]->ValueAt<double>(0));
}

/// A narrower range answered by refining a cached wider one still decodes
/// a compressed column, and counts that decode as a select fallback like
/// every other select that decodes.
TEST(RecyclerIntegrationTest, SubsumedRangeOverCompressedCountsFallback) {
  auto catalog = BigCatalog();
  auto t = catalog->Get("facts");
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->SetCompression(true).ok());
  ASSERT_NE((*t)->MainImage(0).comp, nullptr);
  Recycler rec(64 << 20);
  Interpreter interp(catalog.get(), &rec);

  ASSERT_TRUE(interp.Run(SumWhereK(0, 999)).ok());
  const uint64_t subs_before = rec.stats().subsumption_hits;
  const uint64_t fallback_before = compress::GetKernelStats().selects_fallback;
  auto narrow = interp.Run(SumWhereK(300, 310));
  ASSERT_TRUE(narrow.ok());
  ASSERT_GT(rec.stats().subsumption_hits, subs_before);
  EXPECT_GT(compress::GetKernelStats().selects_fallback, fallback_before);

  Interpreter plain(catalog.get());
  auto want = plain.Run(SumWhereK(300, 310));
  ASSERT_TRUE(want.ok());
  EXPECT_DOUBLE_EQ(narrow->columns[0]->ValueAt<double>(0),
                   want->columns[0]->ValueAt<double>(0));
}

TEST(RecyclerIntegrationTest, UpdateInvalidatesViaVersion) {
  auto catalog = BigCatalog();
  Recycler rec(64 << 20);
  Interpreter interp(catalog.get(), &rec);

  auto r1 = interp.Run(SumWhereK(100, 200));
  ASSERT_TRUE(r1.ok());
  // Mutate the table: bind signatures change, cache entries become
  // unreachable (stale results are never served).
  auto t = catalog->Get("facts");
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->Insert({Value::Int(150), Value::Real(1e6)}).ok());

  mal::RunStats s2;
  auto r2 = interp.Run(SumWhereK(100, 200), &s2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(s2.recycled, 0u);  // nothing stale reused
  EXPECT_NEAR(r2->columns[0]->ValueAt<double>(0),
              r1->columns[0]->ValueAt<double>(0) + 1e6, 1e-3);
}

// ------------------------------------- MVCC keying through the SQL engine --

// Since visibility moved into bind signatures (VisibleStateKey), DML no
// longer flushes the recycler wholesale: a writer on one table must not
// evict a reader's cached intermediates on an unrelated table.
TEST(RecyclerMvccTest, WriterDoesNotEvictUnrelatedTableEntries) {
  sql::Engine engine;
  Recycler rec(64 << 20);
  engine.AttachRecycler(&rec);
  ASSERT_TRUE(engine.Execute("CREATE TABLE hot (k INT, v DOUBLE)").ok());
  ASSERT_TRUE(engine.Execute("CREATE TABLE churn (k INT)").ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO hot VALUES (" +
                             std::to_string(i % 100) + ", " +
                             std::to_string(i * 0.5) + ")")
                    .ok());
  }
  const std::string q = "SELECT sum(v) FROM hot WHERE k >= 10 AND k <= 50";
  ASSERT_TRUE(engine.Execute(q).ok());  // warm the cache
  const uint64_t hits_before = engine.recycler_stats().hits;
  ASSERT_TRUE(engine.Execute(q).ok());
  const uint64_t hits_warm = engine.recycler_stats().hits;
  EXPECT_GT(hits_warm, hits_before) << "repeat query not served from cache";
  // A writer churns the *other* table…
  ASSERT_TRUE(engine.Execute("INSERT INTO churn VALUES (1)").ok());
  ASSERT_TRUE(engine.Execute("DELETE FROM churn WHERE k = 1").ok());
  // …and the hot table's entries are still reusable.
  ASSERT_TRUE(engine.Execute(q).ok());
  EXPECT_GT(engine.recycler_stats().hits, hits_warm)
      << "unrelated DML evicted the reader's cache entries";
}

// Pending (uncommitted) rows change only the writing session's bind
// signature: the writer never reuses pre-write entries for its own reads,
// other sessions never see entries polluted by pending rows, and after
// COMMIT the new version gets fresh signatures (stale results unreachable).
TEST(RecyclerMvccTest, SnapshotsKeyCacheEntriesSeparately) {
  sql::Engine engine;
  Recycler rec(64 << 20);
  engine.AttachRecycler(&rec);
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (k INT, v BIGINT)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ", 1)")
                    .ok());
  }
  const std::string q = "SELECT sum(v) FROM t WHERE k >= 0";
  auto base = engine.Execute(q);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->columns[0]->ValueAt<int64_t>(0), 100);

  sql::SessionPtr writer = engine.CreateSession();
  ASSERT_TRUE(engine.ExecuteSession(writer, "BEGIN").ok());
  ASSERT_TRUE(
      engine.ExecuteSession(writer, "INSERT INTO t VALUES (100, 1)").ok());
  // The writer's own read reflects its pending row (not the cached 100)…
  auto own = engine.ExecuteSession(writer, q);
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->columns[0]->ValueAt<int64_t>(0), 101);
  // …while an auto-commit reader still gets the committed image, and may
  // reuse the pre-write cache entry (same visible version).
  auto other = engine.Execute(q);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->columns[0]->ValueAt<int64_t>(0), 100);
  ASSERT_TRUE(engine.ExecuteSession(writer, "COMMIT").ok());
  // Post-commit: new version, no stale reuse.
  auto after = engine.Execute(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->columns[0]->ValueAt<int64_t>(0), 101);
}

// ------------------------------------------- engine + concurrent sessions --

/// A `metrics(id, val)` table of `nrows` rows: `id` ascending, `val`
/// seeded-random in [0, 10000).
TablePtr MetricsTable(size_t nrows) {
  BatPtr id = Bat::New(PhysType::kInt64);
  id->Resize(nrows);
  BatPtr val = Bat::New(PhysType::kInt64);
  val->Resize(nrows);
  int64_t* idp = id->MutableTailData<int64_t>();
  int64_t* valp = val->MutableTailData<int64_t>();
  Rng rng(1234);
  for (size_t i = 0; i < nrows; ++i) {
    idp[i] = static_cast<int64_t>(i);
    valp[i] = static_cast<int64_t>(rng.Uniform(10000));
  }
  auto t = Table::FromColumns(
      "metrics", {{"id", PhysType::kInt64}, {"val", PhysType::kInt64}},
      {id, val});
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

/// DML does not wipe the recycler: bind signatures key on the
/// snapshot-visible version, so pre-DML entries simply become unreachable
/// for post-DML readers (never served stale) while surviving in the cache
/// for any snapshot that can still use them.
TEST(RecyclerEngineTest, VersionKeyedAcrossDml) {
  sql::Engine engine;
  Recycler rec(size_t{1} << 24);
  engine.AttachRecycler(&rec);
  ASSERT_TRUE(engine
                  .ExecuteScript(
                      "CREATE TABLE kv (k INT, v INT);"
                      "INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30);")
                  .ok());

  const std::string q = "SELECT k, v FROM kv WHERE v >= 10 AND v <= 99";
  auto first = engine.Execute(q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->RowCount(), 3u);
  EXPECT_GT(rec.stats().entries, 0u);  // SELECT populated the cache

  // Repeat: served (at least partly) from the recycler, same answer.
  auto repeat = engine.Execute(q);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->RowCount(), 3u);
  EXPECT_GT(rec.stats().hits, 0u);

  // DML bumps the visible version: entries survive (no wholesale Clear)
  // but the next SELECT keys differently and must see the new row.
  ASSERT_TRUE(engine.Execute("INSERT INTO kv VALUES (4, 40)").ok());
  EXPECT_GT(rec.stats().entries, 0u);
  auto after = engine.Execute(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->RowCount(), 4u);

  ASSERT_TRUE(engine.Execute("DELETE FROM kv WHERE v = 40").ok());
  auto gone = engine.Execute(q);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->RowCount(), 3u);
}

/// One recycler shared by concurrent sessions (the engine guards it
/// internally), one of them mixing in DML — hammered under TSan. Each
/// thread owns its session, and the engine must have run two SELECTs at
/// once.
TEST(RecyclerEngineTest, SafeUnderConcurrentSessions) {
  sql::Engine engine;
  Recycler rec(size_t{1} << 22);
  engine.AttachRecycler(&rec);
  ASSERT_TRUE(engine.catalog()->Register(MetricsTable(size_t{1} << 16)).ok());

  const std::vector<std::string> queries = {
      "SELECT id FROM metrics WHERE val >= 100 AND val <= 5000",
      "SELECT id FROM metrics WHERE val >= 1000 AND val <= 4000",
      "SELECT COUNT(*) FROM metrics WHERE val >= 100 AND val <= 5000",
  };
  testutil::RunOnSessions(
      engine, testutil::NewSessions(engine, 6), 8,
      [&](int s, int round, const sql::SessionPtr& session) {
        if (s == 5 && round % 4 == 3) {
          // One writer session mixes in DML (exclusive lock).
          auto r = engine.ExecuteSession(
              session, "INSERT INTO metrics VALUES (999999, 2500)");
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          return;
        }
        const auto& q = queries[(s + round) % queries.size()];
        auto r = engine.ExecuteSession(session, q,
                                       parallel::ExecContext::Serial());
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      });
  EXPECT_GE(engine.peak_concurrent_selects(), 2u);
  const auto stats = rec.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

/// Concurrent sessions return exactly what a serial engine returns, at
/// every kernel pool size, with statements overlapping.
TEST(ConcurrentSessionsTest, EngineSelectsMatchSerialEngine) {
  const size_t nrows = 3 * (size_t{1} << 16) + 500;
  const std::vector<std::string> queries = {
      "SELECT id, val FROM metrics WHERE val >= 100 AND val <= 6000",
      "SELECT id FROM metrics WHERE val >= 2000 AND val <= 8000",
      "SELECT COUNT(*), SUM(val) FROM metrics WHERE val >= 500 AND "
      "val <= 9000",
      "SELECT val FROM metrics WHERE val >= 4000 AND val <= 4200",
  };

  sql::Engine serial;
  ASSERT_TRUE(serial.catalog()->Register(MetricsTable(nrows)).ok());
  std::vector<std::string> expected;
  for (const auto& q : queries) {
    auto r = serial.Execute(q, parallel::ExecContext::Serial());
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    expected.push_back(r->ToText(1 << 20));
  }

  for (int threads : {1, 2, 4, 8}) {
    sql::Engine engine;
    ASSERT_TRUE(engine.catalog()->Register(MetricsTable(nrows)).ok());
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);
    testutil::RunOnSessions(
        engine, testutil::NewSessions(engine, 6), 3,
        [&](int s, int round, const sql::SessionPtr& session) {
          const size_t q = (s + round) % queries.size();
          auto r = engine.ExecuteSession(session, queries[q], ctx);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(r->ToText(1 << 20), expected[q]) << queries[q];
        });
    EXPECT_GE(engine.peak_concurrent_selects(), 2u) << threads;
  }
}

/// Readers pinned to a transaction snapshot and auto-commit readers run
/// at once on their own sessions, and each sees exactly its own state:
/// the pinned ones the table before a committed INSERT, the others the
/// table after it, bit-identical to a serial engine at the same state.
TEST(ConcurrentSessionsTest, TxnReadersKeepTheirSnapshots) {
  const size_t nrows = 3 * (size_t{1} << 16) + 500;
  const std::string q =
      "SELECT COUNT(*), SUM(val) FROM metrics WHERE val >= 100 AND "
      "val <= 9000";

  // Reference answers from a serial engine, before and after the extra
  // row (MetricsTable is seed-deterministic).
  sql::Engine serial;
  ASSERT_TRUE(serial.catalog()->Register(MetricsTable(nrows)).ok());
  auto r_old = serial.Execute(q, parallel::ExecContext::Serial());
  ASSERT_TRUE(r_old.ok());
  const std::string expected_old = r_old->ToText(1 << 20);
  ASSERT_TRUE(serial.Execute("INSERT INTO metrics VALUES (777777, 5000)").ok());
  auto r_new = serial.Execute(q, parallel::ExecContext::Serial());
  ASSERT_TRUE(r_new.ok());
  const std::string expected_new = r_new->ToText(1 << 20);
  ASSERT_NE(expected_old, expected_new);

  for (int threads : {1, 4}) {
    sql::Engine engine;
    ASSERT_TRUE(engine.catalog()->Register(MetricsTable(nrows)).ok());
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);

    // Even threads pin a snapshot before the write, odd ones read the
    // latest state.
    const std::vector<sql::SessionPtr> sessions =
        testutil::NewSessions(engine, 6);
    for (size_t i = 0; i < sessions.size(); i += 2) {
      ASSERT_TRUE(engine.ExecuteSession(sessions[i], "BEGIN").ok());
      // The first read pins the snapshot at BEGIN-time state.
      ASSERT_TRUE(
          engine.ExecuteSession(sessions[i], "SELECT COUNT(*) FROM metrics")
              .ok());
    }
    ASSERT_TRUE(
        engine.Execute("INSERT INTO metrics VALUES (777777, 5000)").ok());

    testutil::RunOnSessions(
        engine, sessions, 3,
        [&](int s, int, const sql::SessionPtr& session) {
          auto r = engine.ExecuteSession(session, q, ctx);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          if (s % 2 == 0) {
            EXPECT_EQ(r->ToText(1 << 20), expected_old)
                << "snapshot reader leaked a later commit";
          } else {
            EXPECT_EQ(r->ToText(1 << 20), expected_new)
                << "latest reader missed the committed row";
          }
        });
    EXPECT_GE(engine.peak_concurrent_selects(), 2u) << threads;
    for (size_t i = 0; i < sessions.size(); i += 2) {
      ASSERT_TRUE(engine.ExecuteSession(sessions[i], "COMMIT").ok());
    }
  }
}

/// Direct hammering of the recycler API from threads released together
/// by a latch (Lookup, Insert, range registration/subsumption, Clear).
TEST(RecyclerTest, ApiThreadSafe) {
  constexpr int kThreads = 6;
  Recycler rec(size_t{1} << 20, Policy::kRandom);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 300; ++i) {
        const uint64_t sig = rng.Uniform(64);
        std::vector<CachedVal> outs;
        if (rec.Lookup(sig, &outs)) continue;
        rec.Insert(sig, {MakeVal(64)}, 0.001);
        rec.RegisterRange(sig % 8, 0.0, static_cast<double>(sig), sig);
        BatPtr cands;
        rec.LookupRangeSuperset(sig % 8, 1.0, 2.0, &cands);
        if (i % 97 == 96) rec.Clear();
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace mammoth::recycle
