#include "scan/shared_scan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/select.h"
#include "core/table.h"
#include "parallel/task_pool.h"
#include "scan/cooperative.h"
#include "sql/engine.h"

namespace mammoth::scan {
namespace {

constexpr size_t kChunk = size_t{1} << 16;  // minimum (one morsel) grain

SharedScanConfig SmallConfig() {
  SharedScanConfig config;
  // These tests assert exact chunk counts at a fixed grain: one morsel of
  // bytes floors every column width to one-morsel chunks. The
  // byte-adaptive grain has its own tests below.
  config.chunk_bytes = kChunk;
  config.min_share_rows = kChunk;
  return config;
}

/// A random-valued int64 column of `n` rows (unsorted, so the shared path
/// is eligible).
BatPtr RandomColumn(size_t n, uint64_t seed, int64_t value_range) {
  BatPtr b = Bat::New(PhysType::kInt64);
  b->Resize(n);
  int64_t* data = b->MutableTailData<int64_t>();
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<int64_t>(rng.Uniform(
        static_cast<uint64_t>(value_range)));
  }
  return b;
}

/// Nearly-clustered but unsorted: consecutive pairs swapped, so zone maps
/// stay tight while props().sorted stays false.
BatPtr ClusteredColumn(size_t n) {
  BatPtr b = Bat::New(PhysType::kInt64);
  b->Resize(n);
  int64_t* data = b->MutableTailData<int64_t>();
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<int64_t>(i ^ 1);
  }
  return b;
}

void ExpectBitIdentical(const BatPtr& got, const BatPtr& want) {
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(got->hseqbase(), want->hseqbase());
  EXPECT_EQ(got->props().sorted, want->props().sorted);
  EXPECT_EQ(got->props().revsorted, want->props().revsorted);
  EXPECT_EQ(got->props().key, want->props().key);
  ASSERT_EQ(got->Count(), want->Count());
  if (want->Count() == 0) return;
  ASSERT_FALSE(got->IsDenseTail());
  ASSERT_FALSE(want->IsDenseTail());
  EXPECT_EQ(std::memcmp(got->TailData<Oid>(), want->TailData<Oid>(),
                        want->Count() * sizeof(Oid)),
            0);
}

// ------------------------------------------------ policy cross-checks --

/// Simultaneous mixes: the scheduler's physical chunk loads must equal the
/// simulation's on the identical query mix — both implement the same
/// relevance policy, and with all arrivals at t=0 each needed chunk is
/// loaded exactly once (the union).
TEST(SharedScanPolicyTest, LoadsMatchSimulationForSimultaneousMixes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 977);
    const size_t nchunks = 12 + seed;
    const size_t nqueries = 3 + seed % 4;

    std::vector<ScanQuery> mix;
    for (size_t q = 0; q < nqueries; ++q) {
      ScanQuery query;
      query.first_chunk = rng.Uniform(nchunks);
      query.last_chunk =
          query.first_chunk + rng.Uniform(nchunks - query.first_chunk);
      mix.push_back(query);  // arrival 0, no CPU cost
    }
    ScanConfig sim_config;
    sim_config.total_chunks = nchunks;
    sim_config.chunk_load_seconds = 1.0;
    sim_config.buffer_chunks = 4;
    const ScanStats sim = RunCooperative(sim_config, mix);

    SharedScanScheduler sched(SmallConfig());
    std::vector<SharedScanScheduler::Consumer*> consumers;
    std::vector<std::set<size_t>> got(nqueries);
    for (size_t q = 0; q < nqueries; ++q) {
      std::vector<bool> needed(nchunks, false);
      for (size_t c = mix[q].first_chunk; c <= mix[q].last_chunk; ++c) {
        needed[c] = true;
      }
      consumers.push_back(sched.Attach(
          "t", /*version=*/1, nchunks * kChunk, kChunk, needed,
          [&got, q](size_t chunk, size_t, size_t, const ChunkBuffer&,
                    const parallel::ExecContext&) {
            got[q].insert(chunk);
            return Status::OK();
          }));
      ASSERT_NE(consumers.back(), nullptr);
    }
    for (auto* c : consumers) {
      ASSERT_TRUE(sched.Drain(c, parallel::ExecContext::Serial()).ok());
    }

    EXPECT_EQ(sched.stats().chunks_loaded, sim.chunk_loads)
        << "seed " << seed;
    for (size_t q = 0; q < nqueries; ++q) {
      EXPECT_EQ(got[q].size(),
                mix[q].last_chunk - mix[q].first_chunk + 1);
      for (size_t c : got[q]) {
        EXPECT_GE(c, mix[q].first_chunk);
        EXPECT_LE(c, mix[q].last_chunk);
      }
    }
  }
}

/// A late arrival attaches to the in-flight pass, receives the remaining
/// chunks with it, and circles back for the missed prefix — total loads
/// n + k, matching the simulation with the same staggered mix and no
/// buffer reuse.
TEST(SharedScanPolicyTest, LateAttachCirclesBackLikeSimulation) {
  const size_t nchunks = 8;
  const size_t kMissed = 3;  // second query arrives after 3 deliveries

  SharedScanScheduler sched(SmallConfig());
  std::set<size_t> first_got, second_got;
  SharedScanScheduler::Consumer* second = nullptr;
  size_t deliveries = 0;
  auto* first = sched.Attach(
      "t", 1, nchunks * kChunk, kChunk, {},
      [&](size_t chunk, size_t, size_t, const ChunkBuffer&,
          const parallel::ExecContext&) {
        first_got.insert(chunk);
        if (++deliveries == kMissed) {
          // Mid-pass arrival: joins for the remaining chunks.
          second = sched.Attach("t", 1, nchunks * kChunk, kChunk, {},
                                [&](size_t c, size_t, size_t,
                                    const ChunkBuffer&,
                                    const parallel::ExecContext&) {
                                  second_got.insert(c);
                                  return Status::OK();
                                });
          EXPECT_NE(second, nullptr);
        }
        return Status::OK();
      });
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(sched.Drain(first, parallel::ExecContext::Serial()).ok());
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(sched.Drain(second, parallel::ExecContext::Serial()).ok());

  EXPECT_EQ(first_got.size(), nchunks);
  EXPECT_EQ(second_got.size(), nchunks);  // circled back for 0..2
  EXPECT_EQ(sched.stats().chunks_loaded, nchunks + kMissed);

  // The simulation agrees: full scan at t=0, second arrival when 3 chunks
  // are done (1s loads), no buffer to serve the missed prefix from.
  ScanConfig sim_config;
  sim_config.total_chunks = nchunks;
  sim_config.chunk_load_seconds = 1.0;
  sim_config.buffer_chunks = 0;
  const ScanStats sim = RunCooperative(
      sim_config, {{0, nchunks - 1, 0.0, 0.0},
                   {0, nchunks - 1, static_cast<double>(kMissed), 0.0}});
  EXPECT_EQ(sim.chunk_loads, sched.stats().chunks_loaded);
}

/// A mismatched pass shape (table version, row count or chunk grain)
/// refuses the attach instead of mixing rows from different snapshots.
TEST(SharedScanPolicyTest, AttachRejectsMismatchedShape) {
  SharedScanScheduler sched(SmallConfig());
  auto ok = [](size_t, size_t, size_t, const ChunkBuffer&,
               const parallel::ExecContext&) {
    return Status::OK();
  };
  auto* a = sched.Attach("t", 1, 4 * kChunk, kChunk, {}, ok);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(sched.Attach("t", 2, 4 * kChunk, kChunk, {}, ok), nullptr);
  EXPECT_EQ(sched.Attach("t", 1, 5 * kChunk, kChunk, {}, ok), nullptr);
  EXPECT_EQ(sched.Attach("t", 1, 4 * kChunk, 2 * kChunk, {}, ok), nullptr);
  // Same shape: fine.
  auto* b = sched.Attach("t", 1, 4 * kChunk, kChunk, {}, ok);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(sched.ActiveScans("t"), 2u);
  EXPECT_TRUE(sched.Drain(a, parallel::ExecContext::Serial()).ok());
  EXPECT_TRUE(sched.Drain(b, parallel::ExecContext::Serial()).ok());
  EXPECT_EQ(sched.ActiveScans("t"), 0u);
  // Idle group: a new shape may start a fresh pass.
  auto* c = sched.Attach("t", 2, 6 * kChunk, kChunk, {}, ok);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(sched.Drain(c, parallel::ExecContext::Serial()).ok());
}

// ------------------------------------------------------ routed selects --

/// Forces the shared path deterministically: a zero-needs consumer holds
/// the group "busy" so Select() must attach instead of going direct.
class BusyGroup {
 public:
  BusyGroup(SharedScanScheduler* sched, const std::string& table,
            uint64_t version, size_t nrows)
      : sched_(sched) {
    const size_t nchunks = (nrows + kChunk - 1) / kChunk;
    holder_ = sched->Attach(table, version, nrows, kChunk,
                            std::vector<bool>(nchunks, false),
                            [](size_t, size_t, size_t, const ChunkBuffer&,
                               const parallel::ExecContext&) {
                              return Status::OK();
                            });
    EXPECT_NE(holder_, nullptr);
  }
  ~BusyGroup() {
    EXPECT_TRUE(
        sched_->Drain(holder_, parallel::ExecContext::Serial()).ok());
  }

 private:
  SharedScanScheduler* sched_;
  SharedScanScheduler::Consumer* holder_;
};

TEST(SharedScanSelectTest, SharedSelectBitIdenticalToKernel) {
  const size_t n = 5 * kChunk + 1234;  // ragged final chunk
  const BatPtr col = RandomColumn(n, 42, 100000);
  SharedScanScheduler sched(SmallConfig());

  struct Case {
    ScanPredicate pred;
    const char* what;
  };
  const std::vector<Case> cases = {
      {ScanPredicate::Theta(Value::Int(50000), CmpOp::kLt), "lt"},
      {ScanPredicate::Theta(Value::Int(77), CmpOp::kEq), "eq"},
      {ScanPredicate::Theta(Value::Int(77), CmpOp::kNe), "ne"},
      {ScanPredicate::Range(Value::Int(1000), Value::Int(2000), false),
       "range"},
      {ScanPredicate::Range(Value::Int(1000), Value::Int(99000), true),
       "anti-range"},
      {ScanPredicate::Range(Value::Nil(), Value::Int(500), false),
       "open-low"},
  };
  uint64_t version = 1;
  for (const Case& c : cases) {
    Result<BatPtr> want =
        c.pred.kind == ScanPredicate::Kind::kTheta
            ? algebra::ThetaSelect(col, nullptr, c.pred.v, c.pred.op,
                                   parallel::ExecContext::Serial())
            : algebra::RangeSelect(col, nullptr, c.pred.lo, c.pred.hi, true,
                                   true, c.pred.anti,
                                   parallel::ExecContext::Serial());
    ASSERT_TRUE(want.ok()) << c.what;

    // Direct route (group idle).
    auto direct = sched.Select(ColumnSource::Plain(col), "t", "v", version,
                               c.pred, parallel::ExecContext::Serial());
    ASSERT_TRUE(direct.ok()) << c.what;
    ExpectBitIdentical(*direct, *want);

    // Shared route (group held busy).
    {
      BusyGroup busy(&sched, "t", version, n);
      auto shared = sched.Select(ColumnSource::Plain(col), "t", "v",
                                 version, c.pred,
                                 parallel::ExecContext::Serial());
      ASSERT_TRUE(shared.ok()) << c.what;
      ExpectBitIdentical(*shared, *want);
    }
    ++version;  // fresh zone map per case is irrelevant; vary for variety
  }
  EXPECT_GT(sched.stats().scans_attached, 0u);
  EXPECT_GT(sched.stats().scans_direct, 0u);
}

TEST(SharedScanSelectTest, ZoneMapSkipsProvablyEmptyChunks) {
  const size_t n = 6 * kChunk;
  const BatPtr col = ClusteredColumn(n);
  ASSERT_FALSE(col->props().sorted);
  SharedScanScheduler sched(SmallConfig());

  const auto pred =
      ScanPredicate::Range(Value::Int(10), Value::Int(20), false);
  const auto want = algebra::RangeSelect(col, nullptr, pred.lo, pred.hi,
                                         true, true, false,
                                         parallel::ExecContext::Serial());
  ASSERT_TRUE(want.ok());

  BusyGroup busy(&sched, "t", 1, n);
  auto shared =
      sched.Select(ColumnSource::Plain(col), "t", "v", 1, pred,
                   parallel::ExecContext::Serial());
  ASSERT_TRUE(shared.ok());
  ExpectBitIdentical(*shared, *want);
  EXPECT_EQ((*shared)->Count(), 11u);  // values 10..20 live in chunk 0
  // Only chunk 0 can contain [10, 20]; the other 5 were proven empty.
  EXPECT_EQ(sched.stats().chunks_skipped, 5u);
  EXPECT_EQ(sched.stats().chunks_loaded, 1u);
}

TEST(SharedScanSelectTest, IneligibleColumnsTakeKernelPath) {
  SharedScanScheduler sched(SmallConfig());
  // Short column: correct result, no registration at all.
  const BatPtr tiny = RandomColumn(1000, 7, 100);
  auto r = sched.Select(ColumnSource::Plain(tiny), "t", "v", 1,
                        ScanPredicate::Theta(Value::Int(50), CmpOp::kLt),
                        parallel::ExecContext::Serial());
  ASSERT_TRUE(r.ok());
  const auto want =
      algebra::ThetaSelect(tiny, nullptr, Value::Int(50), CmpOp::kLt,
                           parallel::ExecContext::Serial());
  ASSERT_TRUE(want.ok());
  ExpectBitIdentical(*r, *want);
  EXPECT_EQ(sched.stats().scans_attached, 0u);
  EXPECT_EQ(sched.stats().scans_direct, 0u);
}

/// Concurrent Selects through one scheduler are each bit-identical to the
/// serial kernel, for worker pools of 1/2/4/8 — the tentpole correctness
/// guarantee under real concurrency (TSan covers the synchronization).
TEST(SharedScanSelectTest, ConcurrentSelectsBitIdenticalAcrossPools) {
  const size_t n = 4 * kChunk + 999;
  const BatPtr col = RandomColumn(n, 99, 50000);

  struct Query {
    int64_t lo, hi;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back({i * 5000, 20000 + i * 4000});  // overlapping ranges
  }
  std::vector<BatPtr> want(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto w = algebra::RangeSelect(col, nullptr, Value::Int(queries[q].lo),
                                  Value::Int(queries[q].hi), true, true,
                                  false, parallel::ExecContext::Serial());
    ASSERT_TRUE(w.ok());
    want[q] = *w;
  }

  for (int threads : {1, 2, 4, 8}) {
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);
    SharedScanScheduler sched(SmallConfig());
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (int round = 0; round < 3; ++round) {
          const size_t q = (t + round) % queries.size();
          auto r = sched.Select(
              ColumnSource::Plain(col), "t", "v", 1,
              ScanPredicate::Range(Value::Int(queries[q].lo),
                                   Value::Int(queries[q].hi), false),
              ctx);
          ASSERT_TRUE(r.ok());
          ExpectBitIdentical(*r, want[q]);
        }
      });
    }
    for (auto& w : workers) w.join();
    const auto s = sched.stats();
    EXPECT_EQ(s.scans_attached + s.scans_direct, 12u) << threads;
  }
}

// -------------------------------------------- engine + recycler rides --

TablePtr MakeEngineTable(size_t nrows) {
  BatPtr id = Bat::New(PhysType::kInt64);
  id->Resize(nrows);
  int64_t* idp = id->MutableTailData<int64_t>();
  for (size_t i = 0; i < nrows; ++i) idp[i] = static_cast<int64_t>(i);
  BatPtr val = RandomColumn(nrows, 1234, 10000);
  auto t = Table::FromColumns(
      "metrics",
      {{"id", PhysType::kInt64}, {"val", PhysType::kInt64}},
      {id, val});
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

/// End-to-end: concurrent sessions through sql::Engine with an attached
/// scheduler return exactly what a plain engine returns serially.
TEST(SharedScanEngineTest, ConcurrentEngineSelectsMatchPlainEngine) {
  const size_t nrows = 3 * kChunk + 500;
  const std::vector<std::string> queries = {
      "SELECT id, val FROM metrics WHERE val >= 100 AND val <= 6000",
      "SELECT id FROM metrics WHERE val >= 2000 AND val <= 8000",
      "SELECT COUNT(*), SUM(val) FROM metrics WHERE val >= 500 AND "
      "val <= 9000",
      "SELECT val FROM metrics WHERE val >= 4000 AND val <= 4200",
  };

  sql::Engine plain;
  ASSERT_TRUE(plain.catalog()->Register(MakeEngineTable(nrows)).ok());
  std::vector<std::string> expected;
  for (const auto& q : queries) {
    auto r = plain.Execute(q, parallel::ExecContext::Serial());
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    expected.push_back(r->ToText(1 << 20));
  }

  for (int threads : {1, 2, 4, 8}) {
    sql::Engine engine;
    ASSERT_TRUE(engine.catalog()->Register(MakeEngineTable(nrows)).ok());
    SharedScanScheduler sched(SmallConfig());
    engine.AttachSharedScans(&sched);
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);

    std::vector<std::thread> sessions;
    for (int s = 0; s < 6; ++s) {
      sessions.emplace_back([&, s] {
        for (int round = 0; round < 3; ++round) {
          const size_t q = (s + round) % queries.size();
          auto r = engine.Execute(queries[q], ctx);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(r->ToText(1 << 20), expected[q]) << queries[q];
        }
      });
    }
    for (auto& s : sessions) s.join();
    // Every query's WHERE is a full-column range scan of an eligible
    // column, so each one must have gone through the scheduler.
    const auto s = sched.stats();
    EXPECT_EQ(s.scans_attached + s.scans_direct, 18u) << threads;
  }
}

/// Satellite regression (MVCC): DML no longer wipes the recycler — bind
/// signatures key on the snapshot-visible version, so pre-DML entries
/// simply become unreachable for post-DML readers (never served stale)
/// while surviving in the cache for any snapshot that can still use them.
TEST(SharedScanEngineTest, RecyclerVersionKeyedAcrossDml) {
  sql::Engine engine;
  recycle::Recycler rec(size_t{1} << 24);
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

/// Satellite (MVCC): scans inside an open transaction still ride the
/// shared pass — the pass sweeps the main image, which every snapshot
/// sees in full, and each reader selects its own visible slice of the
/// pending delta separately. A
/// pinned-snapshot reader and a latest-state reader share one scheduler
/// concurrently, and each gets exactly its own visibility, bit-identical
/// to a plain serial engine at the matching state.
TEST(SharedScanEngineTest, TxnReadersShareOnePassWithOwnSnapshots) {
  const size_t nrows = 3 * kChunk + 500;
  const std::string q =
      "SELECT COUNT(*), SUM(val) FROM metrics WHERE val >= 100 AND "
      "val <= 9000";

  // Reference answers from a plain serial engine: before and after the
  // extra row (MakeEngineTable is seed-deterministic).
  sql::Engine plain;
  ASSERT_TRUE(plain.catalog()->Register(MakeEngineTable(nrows)).ok());
  auto r_old = plain.Execute(q, parallel::ExecContext::Serial());
  ASSERT_TRUE(r_old.ok());
  const std::string expected_old = r_old->ToText(1 << 20);
  ASSERT_TRUE(plain.Execute("INSERT INTO metrics VALUES (777777, 5000)").ok());
  auto r_new = plain.Execute(q, parallel::ExecContext::Serial());
  ASSERT_TRUE(r_new.ok());
  const std::string expected_new = r_new->ToText(1 << 20);
  ASSERT_NE(expected_old, expected_new);

  for (int threads : {1, 4}) {
    sql::Engine engine;
    ASSERT_TRUE(engine.catalog()->Register(MakeEngineTable(nrows)).ok());
    SharedScanScheduler sched(SmallConfig());
    engine.AttachSharedScans(&sched);
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);

    // Pin three snapshots before the write…
    std::vector<sql::SessionPtr> pinned;
    for (int i = 0; i < 3; ++i) {
      pinned.push_back(engine.CreateSession());
      ASSERT_TRUE(engine.ExecuteSession(pinned.back(), "BEGIN").ok());
      // First read pins the snapshot at BEGIN-time state.
      ASSERT_TRUE(
          engine.ExecuteSession(pinned.back(), "SELECT COUNT(*) FROM metrics")
              .ok());
    }
    // …then commit the extra row.
    ASSERT_TRUE(
        engine.Execute("INSERT INTO metrics VALUES (777777, 5000)").ok());

    // Snapshot readers and latest readers hammer the same scheduler.
    std::vector<std::thread> readers;
    for (int i = 0; i < 3; ++i) {
      readers.emplace_back([&, i] {
        for (int round = 0; round < 3; ++round) {
          auto r = engine.ExecuteSession(pinned[i], q, ctx);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(r->ToText(1 << 20), expected_old)
              << "snapshot reader leaked a later commit";
        }
      });
      readers.emplace_back([&] {
        for (int round = 0; round < 3; ++round) {
          auto r = engine.Execute(q, ctx);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(r->ToText(1 << 20), expected_new)
              << "latest reader missed the committed row";
        }
      });
    }
    for (auto& t : readers) t.join();
    for (auto& s : pinned) {
      ASSERT_TRUE(engine.ExecuteSession(s, "COMMIT").ok());
    }
  }
}

/// Satellite: one recycler shared by concurrent sessions (the engine now
/// guards it internally) — hammered from many threads under TSan.
TEST(SharedScanEngineTest, RecyclerSafeUnderConcurrentSessions) {
  sql::Engine engine;
  recycle::Recycler rec(size_t{1} << 22);
  engine.AttachRecycler(&rec);
  ASSERT_TRUE(engine.catalog()->Register(MakeEngineTable(kChunk)).ok());

  const std::vector<std::string> queries = {
      "SELECT id FROM metrics WHERE val >= 100 AND val <= 5000",
      "SELECT id FROM metrics WHERE val >= 1000 AND val <= 4000",
      "SELECT COUNT(*) FROM metrics WHERE val >= 100 AND val <= 5000",
  };
  std::vector<std::thread> sessions;
  for (int s = 0; s < 6; ++s) {
    sessions.emplace_back([&, s] {
      for (int round = 0; round < 8; ++round) {
        if (s == 5 && round % 4 == 3) {
          // One writer session mixes in DML (exclusive lock + Clear()).
          auto r = engine.Execute(
              "INSERT INTO metrics VALUES (999999, 2500)");
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          continue;
        }
        const auto& q = queries[(s + round) % queries.size()];
        auto r = engine.Execute(q, parallel::ExecContext::Serial());
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (auto& s : sessions) s.join();
  const auto stats = rec.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

/// Direct hammering of the recycler API from many threads (Lookup,
/// Insert, range registration/subsumption, Clear) — TSan coverage for
/// the mutex added in this change.
TEST(SharedScanEngineTest, RecyclerApiThreadSafe) {
  recycle::Recycler rec(size_t{1} << 20, recycle::Policy::kRandom);
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 300; ++i) {
        const uint64_t sig = rng.Uniform(64);
        std::vector<recycle::CachedVal> outs;
        if (rec.Lookup(sig, &outs)) continue;
        recycle::CachedVal v;
        v.bat = Bat::New(PhysType::kInt32);
        v.bat->Resize(64);
        rec.Insert(sig, {v}, 0.001);
        rec.RegisterRange(sig % 8, 0.0, static_cast<double>(sig), sig);
        BatPtr cands;
        rec.LookupRangeSuperset(sig % 8, 1.0, 2.0, &cands);
        if (i % 97 == 96) rec.Clear();
      }
    });
  }
  for (auto& t : threads) t.join();
}

// --------------------------------------------- byte-adaptive chunking --

/// The pass grain derives from chunk_bytes / width, morsel-aligned with a
/// one-morsel floor.
TEST(SharedScanAdaptiveTest, RowsPerChunkScalesWithValueWidth) {
  SharedScanConfig config;  // default: chunk_bytes = 1 MiB
  SharedScanScheduler sched(config);
  EXPECT_EQ(sched.RowsPerChunk(4), size_t{1} << 18);  // int32
  EXPECT_EQ(sched.RowsPerChunk(8), size_t{1} << 17);  // int64/double
  EXPECT_EQ(sched.RowsPerChunk(2), size_t{1} << 19);  // int16
  // Very wide values clamp at one morsel, never below.
  EXPECT_EQ(sched.RowsPerChunk(size_t{1} << 10), size_t{1} << 16);
  // Non-power-of-two widths still come out morsel-aligned.
  EXPECT_EQ(sched.RowsPerChunk(3) % (size_t{1} << 16), 0u);
}

/// An int64 pass sweeps half the rows per chunk of an int32 pass (equal
/// chunk bytes), visible in the physical load count — and the result
/// stays bit-identical to the kernel at any grain.
TEST(SharedScanAdaptiveTest, PassGrainFollowsColumnWidth) {
  const size_t n = size_t{1} << 19;  // 512Ki rows, >= min_share_rows
  SharedScanConfig config;           // 1 MiB chunks
  SharedScanScheduler sched(config);
  const BatPtr col64 = RandomColumn(n, 11, 1000);
  const auto pred = ScanPredicate::Theta(Value::Int(500), CmpOp::kLt);

  auto got =
      sched.Select(ColumnSource::Plain(col64), "t", "v", 1, pred,
                   parallel::ExecContext::Serial());
  ASSERT_TRUE(got.ok());
  const auto want = algebra::ThetaSelect(col64, nullptr, pred.v, pred.op,
                                         parallel::ExecContext::Serial());
  ASSERT_TRUE(want.ok());
  ExpectBitIdentical(*got, *want);
  // 2^19 int64 rows at 2^17 rows/chunk = 4 loads (int32 would be 2).
  EXPECT_EQ(sched.stats().chunks_loaded, 4u);
}

/// A scan joining an in-flight pass adopts that pass's grain (the chunk
/// grid lives over row positions), keeping deliveries shareable across
/// columns instead of falling back.
TEST(SharedScanAdaptiveTest, JoinerAdoptsPassGrain) {
  const size_t n = size_t{1} << 19;
  SharedScanScheduler sched;  // adaptive default config
  const BatPtr col = RandomColumn(n, 13, 1000);
  const auto pred = ScanPredicate::Theta(Value::Int(100), CmpOp::kGe);

  // Pin a pass at the one-morsel grain via the low-level protocol...
  const size_t pinned = kChunk;
  auto* holder = sched.Attach(
      "t", 1, n, pinned, std::vector<bool>(n / pinned, false),
      [](size_t, size_t, size_t, const ChunkBuffer&,
         const parallel::ExecContext&) {
        return Status::OK();
      });
  ASSERT_NE(holder, nullptr);

  // ...then a routed Select must join it at that grain, not its own.
  auto got =
      sched.Select(ColumnSource::Plain(col), "t", "v", 1, pred,
                   parallel::ExecContext::Serial());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(sched.Drain(holder, parallel::ExecContext::Serial()).ok());

  const auto want = algebra::ThetaSelect(col, nullptr, pred.v, pred.op,
                                         parallel::ExecContext::Serial());
  ASSERT_TRUE(want.ok());
  ExpectBitIdentical(*got, *want);
  EXPECT_EQ(sched.stats().scans_attached, 2u);  // holder + joiner
  EXPECT_EQ(sched.stats().chunks_loaded, n / pinned);  // pinned grain won
}

}  // namespace
}  // namespace mammoth::scan
