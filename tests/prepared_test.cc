#include "sql/prepared.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "server/wire.h"
#include "sql/engine.h"

namespace mammoth::sql {
namespace {

class PreparedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .Execute("CREATE TABLE items (id INT, price INT, "
                             "tag VARCHAR(16))")
                    .ok());
    std::string ins = "INSERT INTO items VALUES ";
    for (int i = 0; i < 500; ++i) {
      if (i > 0) ins += ", ";
      ins += "(" + std::to_string(i) + ", " + std::to_string((i * 13) % 97) +
             ", '" + (i % 2 == 0 ? "even" : "odd") + "')";
    }
    ASSERT_TRUE(engine_.Execute(ins).ok());
  }
  Engine engine_;
};

// ------------------------------------------------------ cache plumbing --

TEST_F(PreparedTest, PrepareReturnsIdAndParamCount) {
  auto entry = engine_.Prepare(
      "SELECT id FROM items WHERE price >= ? AND price <= ?");
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_GT((*entry)->id, 0u);
  EXPECT_EQ((*entry)->nparams, 2u);
}

TEST_F(PreparedTest, NormalizationDedupesEquivalentText) {
  auto a = engine_.Prepare("SELECT id FROM items WHERE price = ?");
  auto b = engine_.Prepare("select  ID   from ITEMS where PRICE = ?;");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->id, (*b)->id);  // one cache entry, second was a hit
  const PreparedStats s = engine_.prepared_stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  // Case inside string literals is significant: different statement.
  auto c = engine_.Prepare("SELECT id FROM items WHERE tag = 'even'");
  auto d = engine_.Prepare("SELECT id FROM items WHERE tag = 'EVEN'");
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_NE((*c)->id, (*d)->id);
}

TEST_F(PreparedTest, ExecuteMatchesUnpreparedBitForBit) {
  const std::string raw =
      "SELECT id, price FROM items WHERE price >= 10 AND price <= 40";
  auto expected = engine_.Execute(raw);
  ASSERT_TRUE(expected.ok());
  auto expected_bytes = server::EncodeResult(*expected);
  ASSERT_TRUE(expected_bytes.ok());

  auto entry = engine_.Prepare(
      "SELECT id, price FROM items WHERE price >= ? AND price <= ?");
  ASSERT_TRUE(entry.ok());
  for (int rep = 0; rep < 3; ++rep) {
    auto got = engine_.ExecutePrepared((*entry)->id,
                                       {Value::Int(10), Value::Int(40)});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto got_bytes = server::EncodeResult(*got);
    ASSERT_TRUE(got_bytes.ok());
    EXPECT_EQ(*got_bytes, *expected_bytes) << "rep " << rep;
  }
}

TEST_F(PreparedTest, PlanCacheHitsSkipRecompilation) {
  auto entry = engine_.Prepare("SELECT COUNT(*) FROM items WHERE price = ?");
  ASSERT_TRUE(entry.ok());
  const PreparedStats before = engine_.prepared_stats();
  ASSERT_TRUE(engine_.ExecutePrepared((*entry)->id, {Value::Int(5)}).ok());
  ASSERT_TRUE(engine_.ExecutePrepared((*entry)->id, {Value::Int(6)}).ok());
  ASSERT_TRUE(engine_.ExecutePrepared((*entry)->id, {Value::Int(7)}).ok());
  const PreparedStats after = engine_.prepared_stats();
  // First execution compiles (miss); the rest reuse the cached plan.
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 2u);
}

TEST_F(PreparedTest, OnlyDdlInvalidatesCachedPlans) {
  auto entry = engine_.Prepare("SELECT COUNT(*) FROM items WHERE price = ?");
  ASSERT_TRUE(entry.ok());
  auto first = engine_.ExecutePrepared((*entry)->id, {Value::Int(5)});
  ASSERT_TRUE(first.ok());
  const int64_t before_insert = first->columns[0]->ValueAt<int64_t>(0);
  const PreparedStats warm = engine_.prepared_stats();
  auto direct_count = [&] {
    auto direct =
        engine_.Execute("SELECT COUNT(*) FROM items WHERE price = 5");
    EXPECT_TRUE(direct.ok());
    return direct.ok() ? direct->columns[0]->ValueAt<int64_t>(0) : -1;
  };

  // DML (auto-commit, and a committed transaction) leaves the schema
  // alone: the cached plan stays valid — a hit — and still sees the rows.
  ASSERT_TRUE(engine_.Execute("INSERT INTO items VALUES (9999, 5, 'odd')")
                  .ok());
  ASSERT_TRUE(engine_.Execute("BEGIN").ok());
  ASSERT_TRUE(engine_.Execute("INSERT INTO items VALUES (9998, 5, 'odd')")
                  .ok());
  ASSERT_TRUE(engine_.Execute("COMMIT").ok());
  auto r = engine_.ExecutePrepared((*entry)->id, {Value::Int(5)});
  ASSERT_TRUE(r.ok());
  PreparedStats after = engine_.prepared_stats();
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_EQ(after.hits - warm.hits, 1u);
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), before_insert + 2);
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), direct_count());

  // DDL bumps the schema version: the next execution recompiles (a
  // miss) and answers the same.
  ASSERT_TRUE(engine_.Execute("ALTER TABLE items COMPRESS").ok());
  r = engine_.ExecutePrepared((*entry)->id, {Value::Int(5)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine_.prepared_stats().misses - after.misses, 1u);
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), direct_count());

  // And the plan stays cached again afterwards.
  after = engine_.prepared_stats();
  ASSERT_TRUE(engine_.ExecutePrepared((*entry)->id, {Value::Int(5)}).ok());
  EXPECT_EQ(engine_.prepared_stats().misses, after.misses);
}

TEST_F(PreparedTest, LruEvictionIsCountedAndBounded) {
  engine_.set_prepared_capacity(4);
  for (int i = 0; i < 10; ++i) {
    auto e = engine_.Prepare("SELECT id FROM items WHERE price = " +
                             std::to_string(i));
    ASSERT_TRUE(e.ok()) << i;
  }
  const PreparedStats s = engine_.prepared_stats();
  EXPECT_EQ(s.entries, 4u);
  EXPECT_EQ(s.evictions, 6u);
  // An evicted id is gone; executing it is a typed NotFound, the
  // wire-level equivalent of "please re-prepare".
  auto first = engine_.Prepare("SELECT id FROM items WHERE price = 99");
  ASSERT_TRUE(first.ok());
  engine_.set_prepared_capacity(0);
  auto gone = engine_.ExecutePrepared((*first)->id, {});
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST_F(PreparedTest, EvictionMidExecutionIsSafe) {
  // The shared_ptr entry keeps an in-flight execution alive even when
  // the cache evicts it concurrently.
  auto entry = engine_.Prepare("SELECT SUM(price) FROM items");
  ASSERT_TRUE(entry.ok());
  std::shared_ptr<PreparedStatement> held = *entry;
  engine_.set_prepared_capacity(0);  // evicts everything
  EXPECT_EQ(engine_.prepared_stats().entries, 0u);
  EXPECT_EQ(held->nparams, 0u);  // the held entry is still intact
}

TEST_F(PreparedTest, ParameterCountAndNilAreTypedErrors) {
  auto entry = engine_.Prepare("SELECT id FROM items WHERE price = ?");
  ASSERT_TRUE(entry.ok());
  auto too_few = engine_.ExecutePrepared((*entry)->id, {});
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);
  auto too_many = engine_.ExecutePrepared(
      (*entry)->id, {Value::Int(1), Value::Int(2)});
  ASSERT_FALSE(too_many.ok());
  auto nil = engine_.ExecutePrepared((*entry)->id, {Value::Nil()});
  ASSERT_FALSE(nil.ok());
  EXPECT_EQ(nil.status().code(), StatusCode::kInvalidArgument);
  auto unknown = engine_.ExecutePrepared(0xDEAD, {});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST_F(PreparedTest, StrayPlaceholderOutsidePrepareIsRejected) {
  // `?` only means "parameter" under PREPARE; a plain query using it is
  // a parse error, not a silent nil.
  auto r = engine_.Execute("SELECT id FROM items WHERE price = ?");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PreparedTest, PreparedDmlBindsParameters) {
  auto ins = engine_.Prepare("INSERT INTO items VALUES (?, ?, ?)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ((*ins)->nparams, 3u);
  ASSERT_TRUE(engine_
                  .ExecutePrepared((*ins)->id, {Value::Int(7777),
                                                Value::Int(4242),
                                                Value::Str("even")})
                  .ok());
  auto check = engine_.Execute("SELECT tag FROM items WHERE id = 7777");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->RowCount(), 1u);
  EXPECT_EQ(check->columns[0]->StringAt(0), "even");

  auto del = engine_.Prepare("DELETE FROM items WHERE id = ?");
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(engine_.ExecutePrepared((*del)->id, {Value::Int(7777)}).ok());
  auto gone = engine_.Execute("SELECT tag FROM items WHERE id = 7777");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->RowCount(), 0u);
}

TEST_F(PreparedTest, ConcurrentSessionsPreparingSameStatementShareEntry) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::vector<uint64_t> ids(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto e = engine_.Prepare(
          "SELECT id FROM items WHERE price >= ? AND price <= ?");
      if (!e.ok()) {
        ++failures;
        return;
      }
      ids[t] = (*e)->id;
      for (int rep = 0; rep < 4; ++rep) {
        auto r = engine_.ExecutePrepared(
            (*e)->id, {Value::Int(t), Value::Int(t + 20)});
        if (!r.ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  EXPECT_EQ(engine_.prepared_stats().entries, 1u);
}

// --------------------------------------------------------- SQL surface --

TEST_F(PreparedTest, SqlPrepareExecuteRoundTrip) {
  auto prep = engine_.Execute(
      "PREPARE cheap AS SELECT id FROM items WHERE price <= ?");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  ASSERT_EQ(prep->names, (std::vector<std::string>{"stmt_id", "nparams"}));
  EXPECT_EQ(prep->columns[1]->ValueAt<int64_t>(0), 1);

  auto direct = engine_.Execute("SELECT id FROM items WHERE price <= 3");
  ASSERT_TRUE(direct.ok());
  auto got = engine_.Execute("EXECUTE cheap (3)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto a = server::EncodeResult(*direct);
  auto b = server::EncodeResult(*got);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  // Names are case-insensitive like the rest of the surface; negative
  // and string literals bind too.
  ASSERT_TRUE(engine_
                  .Execute("PREPARE tagq AS "
                           "SELECT COUNT(*) FROM items WHERE tag = ?")
                  .ok());
  auto tagged = engine_.Execute("EXECUTE TAGQ ('even')");
  ASSERT_TRUE(tagged.ok()) << tagged.status().ToString();
  EXPECT_EQ(tagged->columns[0]->ValueAt<int64_t>(0), 250);
}

TEST_F(PreparedTest, SqlSurfaceErrorsAreTyped) {
  EXPECT_FALSE(engine_.Execute("PREPARE AS SELECT 1").ok());
  EXPECT_FALSE(engine_.Execute("PREPARE p2").ok());
  auto unknown = engine_.Execute("EXECUTE nosuch (1)");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine_
                  .Execute("PREPARE one AS "
                           "SELECT id FROM items WHERE price = ?")
                  .ok());
  EXPECT_FALSE(engine_.Execute("EXECUTE one (1, 2)").ok());   // arity
  EXPECT_FALSE(engine_.Execute("EXECUTE one (1) junk").ok()); // trailing
  // Only SELECT and DML bodies can be prepared: nesting PREPARE, EXECUTE
  // or CHECKPOINT stays a typed error.
  for (const char* nested : {"PREPARE p AS PREPARE q AS SELECT 1",
                             "PREPARE p AS EXECUTE one (1)",
                             "PREPARE p AS CHECKPOINT"}) {
    auto r = engine_.Execute(nested);
    ASSERT_FALSE(r.ok()) << nested;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << nested;
  }
}

}  // namespace
}  // namespace mammoth::sql
