#include "recycle/recycler.h"

#include <gtest/gtest.h>

#include "compress/compressed_kernels.h"
#include "mal/interpreter.h"
#include "sql/engine.h"

namespace mammoth::recycle {
namespace {

using mal::Interpreter;
using mal::OpCode;
using mal::Program;

CachedVal MakeVal(size_t n) {
  CachedVal v;
  v.bat = Bat::New(PhysType::kInt32);
  v.bat->Resize(n);
  return v;
}

TEST(RecyclerTest, ExactHitAfterInsert) {
  Recycler rec(1 << 20);
  std::vector<CachedVal> outs;
  EXPECT_FALSE(rec.Lookup(42, &outs));
  rec.Insert(42, {MakeVal(10)}, 0.001);
  ASSERT_TRUE(rec.Lookup(42, &outs));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].bat->Count(), 10u);
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
  EXPECT_EQ(cands.get(), wide.bat.get());
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
  EXPECT_EQ(cands.get(), narrow.bat.get());
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
  ASSERT_NE((*t)->CompressedColumn(0), nullptr);
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

}  // namespace
}  // namespace mammoth::recycle
