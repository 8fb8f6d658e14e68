#include "sql/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "parallel/task_pool.h"
#include "sql/parser.h"

namespace mammoth::sql {
namespace {

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .Execute("CREATE TABLE people (name VARCHAR(32), "
                             "age INT, salary DOUBLE)")
                    .ok());
    const char* inserts =
        "INSERT INTO people VALUES "
        "('John Wayne', 1907, 10.0), ('Roger Moore', 1927, 20.0), "
        "('Bob Fosse', 1927, 30.0), ('Will Smith', 1968, 40.0), "
        "('Ada Lovelace', 1815, 50.0)";
    ASSERT_TRUE(engine_.Execute(inserts).ok());
  }
  Engine engine_;
};

TEST_F(SqlEngineTest, SelectWhereEquality) {
  auto r = engine_.Execute("SELECT name FROM people WHERE age = 1927");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 2u);
  EXPECT_EQ(r->columns[0]->StringAt(0), "Roger Moore");
  EXPECT_EQ(r->columns[0]->StringAt(1), "Bob Fosse");
}

TEST_F(SqlEngineTest, SelectStar) {
  auto r = engine_.Execute("SELECT * FROM people LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->names.size(), 3u);
  EXPECT_EQ(r->RowCount(), 2u);
  EXPECT_EQ(r->names[0], "name");
  EXPECT_EQ(r->names[2], "salary");
}

TEST_F(SqlEngineTest, RangePredicatesGetFused) {
  auto r = engine_.Execute(
      "SELECT name FROM people WHERE age >= 1900 AND age <= 1930");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->RowCount(), 3u);
  EXPECT_GE(engine_.last_opt_report().fused, 1u);
  EXPECT_NE(engine_.last_plan_text().find("algebra.select"),
            std::string::npos);
}

TEST_F(SqlEngineTest, StringPredicate) {
  auto r = engine_.Execute(
      "SELECT age FROM people WHERE name = 'Ada Lovelace'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->RowCount(), 1u);
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(0), 1815);
}

TEST_F(SqlEngineTest, GlobalAggregates) {
  auto r = engine_.Execute(
      "SELECT count(*), sum(salary), min(age), max(age), avg(salary) "
      "FROM people");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 1u);
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 5);
  EXPECT_DOUBLE_EQ(r->columns[1]->ValueAt<double>(0), 150.0);
  EXPECT_EQ(r->columns[2]->ValueAt<int32_t>(0), 1815);
  EXPECT_EQ(r->columns[3]->ValueAt<int32_t>(0), 1968);
  EXPECT_DOUBLE_EQ(r->columns[4]->ValueAt<double>(0), 30.0);
}

TEST_F(SqlEngineTest, GroupByWithAggregates) {
  auto r = engine_.Execute(
      "SELECT age, count(*), sum(salary) FROM people GROUP BY age "
      "ORDER BY age");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 4u);
  // Sorted by age: 1815, 1907, 1927, 1968.
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(0), 1815);
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(2), 1927);
  EXPECT_EQ(r->columns[1]->ValueAt<int64_t>(2), 2);
  EXPECT_DOUBLE_EQ(r->columns[2]->ValueAt<double>(2), 50.0);
}

TEST_F(SqlEngineTest, OrderByDescAndLimit) {
  auto r = engine_.Execute(
      "SELECT name, salary FROM people ORDER BY salary DESC LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->RowCount(), 2u);
  EXPECT_EQ(r->columns[0]->StringAt(0), "Ada Lovelace");
  EXPECT_EQ(r->columns[0]->StringAt(1), "Will Smith");
}

TEST_F(SqlEngineTest, DeleteWithPredicate) {
  ASSERT_TRUE(engine_.Execute("DELETE FROM people WHERE age < 1900").ok());
  auto r = engine_.Execute("SELECT count(*) FROM people");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 4);
}

TEST_F(SqlEngineTest, DeleteAll) {
  ASSERT_TRUE(engine_.Execute("DELETE FROM people").ok());
  auto r = engine_.Execute("SELECT count(*) FROM people");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 0);
}

TEST_F(SqlEngineTest, InsertThenQuerySeesDelta) {
  ASSERT_TRUE(
      engine_.Execute("INSERT INTO people VALUES ('New Kid', 2000, 1.0)")
          .ok());
  auto r = engine_.Execute("SELECT name FROM people WHERE age > 1990");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->RowCount(), 1u);
  EXPECT_EQ(r->columns[0]->StringAt(0), "New Kid");
}

TEST_F(SqlEngineTest, UpdateRewritesMatchingRows) {
  ASSERT_TRUE(
      engine_.Execute("UPDATE people SET salary = 99.0 WHERE age = 1927")
          .ok());
  auto r = engine_.Execute(
      "SELECT sum(salary) FROM people WHERE age = 1927");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->columns[0]->ValueAt<double>(0), 198.0);
  // Unmatched rows untouched; total row count preserved.
  r = engine_.Execute("SELECT count(*), sum(salary) FROM people");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 5);
  EXPECT_DOUBLE_EQ(r->columns[1]->ValueAt<double>(0),
                   10.0 + 99.0 + 99.0 + 40.0 + 50.0);
}

TEST_F(SqlEngineTest, UpdateMultipleColumnsNoWhere) {
  ASSERT_TRUE(
      engine_.Execute("UPDATE people SET age = 2000, salary = 1.0").ok());
  auto r = engine_.Execute(
      "SELECT min(age), max(age), sum(salary) FROM people");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(0), 2000);
  EXPECT_EQ(r->columns[1]->ValueAt<int32_t>(0), 2000);
  EXPECT_DOUBLE_EQ(r->columns[2]->ValueAt<double>(0), 5.0);
}

TEST_F(SqlEngineTest, UpdateValidates) {
  EXPECT_FALSE(engine_.Execute("UPDATE people SET ghost = 1").ok());
  EXPECT_FALSE(engine_.Execute("UPDATE people SET name = 5").ok());
  EXPECT_FALSE(engine_.Execute("UPDATE ghosts SET x = 1").ok());
}

TEST_F(SqlEngineTest, HavingFiltersGroups) {
  auto r = engine_.Execute(
      "SELECT age, count(*) FROM people GROUP BY age "
      "HAVING count(*) >= 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 1u);
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(0), 1927);
  r = engine_.Execute(
      "SELECT age, sum(salary) FROM people GROUP BY age "
      "HAVING sum(salary) > 20 AND age < 1960 ORDER BY age");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 2u);  // 1815 (50), 1927 (50)
  EXPECT_FALSE(
      engine_.Execute("SELECT age FROM people GROUP BY age "
                      "HAVING sum(salary) > 1")
          .ok());  // label not in select list
}

TEST_F(SqlEngineTest, MultiKeyOrderBy) {
  ASSERT_TRUE(engine_
                  .Execute("INSERT INTO people VALUES "
                           "('Zed', 1927, 5.0), ('Amy', 1907, 60.0)")
                  .ok());
  auto r = engine_.Execute(
      "SELECT age, salary, name FROM people ORDER BY age, salary DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 7u);
  // age ascending (major); within equal ages salary descending (minor).
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(0), 1815);
  EXPECT_EQ(r->columns[2]->StringAt(1), "Amy");         // 1907, 60
  EXPECT_EQ(r->columns[2]->StringAt(2), "John Wayne");  // 1907, 10
  EXPECT_EQ(r->columns[2]->StringAt(3), "Bob Fosse");   // 1927, 30
  EXPECT_EQ(r->columns[2]->StringAt(4), "Roger Moore");  // 1927, 20
  EXPECT_EQ(r->columns[2]->StringAt(5), "Zed");          // 1927, 5
}

TEST_F(SqlEngineTest, ErrorsAreStatusNotCrash) {
  EXPECT_FALSE(engine_.Execute("SELECT nosuch FROM people").ok());
  EXPECT_FALSE(engine_.Execute("SELECT name FROM ghosts").ok());
  EXPECT_FALSE(engine_.Execute("SELECT name, sum(age) FROM people").ok());
  EXPECT_FALSE(
      engine_.Execute("SELECT name, age FROM people GROUP BY age").ok());
  EXPECT_FALSE(engine_.Execute("SELEC name FROM people").ok());
  EXPECT_FALSE(engine_.Execute("SELECT name FROM people ORDER BY salary")
                   .ok());  // not in select list
  EXPECT_FALSE(
      engine_.Execute("CREATE TABLE people (x INT)").ok());  // exists
  EXPECT_FALSE(
      engine_.Execute("INSERT INTO people VALUES (1)").ok());  // arity
}

TEST_F(SqlEngineTest, ExecuteScriptReturnsLastSelect) {
  auto r = engine_.ExecuteScript(
      "CREATE TABLE t2 (x INT);"
      "INSERT INTO t2 VALUES (1), (2), (3);"
      "SELECT sum(x) FROM t2;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 6);
}

TEST_F(SqlEngineTest, RecyclerSpeedsRepeatedQueries) {
  recycle::Recycler rec(16 << 20);
  engine_.AttachRecycler(&rec);
  ASSERT_TRUE(
      engine_.Execute("SELECT sum(salary) FROM people WHERE age >= 1900")
          .ok());
  ASSERT_TRUE(
      engine_.Execute("SELECT sum(salary) FROM people WHERE age >= 1900")
          .ok());
  EXPECT_GT(engine_.last_run_stats().recycled, 0u);
}

// ----------------------------------------------------------- Parser-only --

TEST(SqlParserTest, ParsesCreateTypes) {
  auto s = Parse(
      "CREATE TABLE t (a TINYINT, b SMALLINT, c INT, d BIGINT, e DOUBLE, "
      "f VARCHAR(10), g TEXT)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const auto& c = std::get<CreateStmt>(*s);
  ASSERT_EQ(c.columns.size(), 7u);
  EXPECT_EQ(c.columns[0].type, PhysType::kInt8);
  EXPECT_EQ(c.columns[3].type, PhysType::kInt64);
  EXPECT_EQ(c.columns[5].type, PhysType::kStr);
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  auto s = Parse("select name from People where AGE >= 10");
  ASSERT_TRUE(s.ok());
  const auto& sel = std::get<SelectStmt>(*s);
  ASSERT_EQ(sel.tables.size(), 1u);
  EXPECT_EQ(sel.tables[0], "people");
  EXPECT_EQ(sel.where[0].column.column, "age");
  EXPECT_EQ(sel.where[0].op, CmpOp::kGe);
}

TEST(SqlParserTest, QualifiedRefsAndJoinPredicates) {
  auto s = Parse(
      "SELECT o.total, c.name FROM orders, customers "
      "WHERE o.cid = c.id AND c.age > 30");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const auto& sel = std::get<SelectStmt>(*s);
  ASSERT_EQ(sel.tables.size(), 2u);
  EXPECT_EQ(sel.items[0].column.table, "o");
  EXPECT_EQ(sel.items[0].column.column, "total");
  ASSERT_EQ(sel.where.size(), 2u);
  EXPECT_TRUE(sel.where[0].is_join);
  EXPECT_EQ(sel.where[0].rhs_column.table, "c");
  EXPECT_FALSE(sel.where[1].is_join);
}

TEST(SqlParserTest, NonEquiJoinPredicateRejected) {
  EXPECT_FALSE(Parse("SELECT a FROM t, u WHERE t.a < u.b").ok());
}

TEST(SqlParserTest, NegativeAndRealLiterals) {
  auto s = Parse("SELECT x FROM t WHERE x > -5 AND x < 2.75");
  ASSERT_TRUE(s.ok());
  const auto& sel = std::get<SelectStmt>(*s);
  EXPECT_EQ(sel.where[0].literal.AsInt(), -5);
  EXPECT_DOUBLE_EQ(sel.where[1].literal.AsReal(), 2.75);
}

class SqlJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteScript(
                        "CREATE TABLE customers (id INT, name VARCHAR(16), "
                        "age INT);"
                        "INSERT INTO customers VALUES (1, 'ada', 36), "
                        "(2, 'bob', 50), (3, 'cyd', 19);"
                        "CREATE TABLE orders (oid INT, cid INT, "
                        "total DOUBLE);"
                        "INSERT INTO orders VALUES (100, 1, 10.0), "
                        "(101, 2, 20.0), (102, 1, 30.0), (103, 3, 40.0), "
                        "(104, 9, 50.0);")
                    .ok());
  }
  Engine engine_;
};

TEST_F(SqlJoinTest, EquiJoinProjectsBothSides) {
  auto r = engine_.Execute(
      "SELECT name, total FROM customers, orders "
      "WHERE id = cid ORDER BY total");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 4u);  // order 104 has no customer
  EXPECT_EQ(r->columns[0]->StringAt(0), "ada");
  EXPECT_DOUBLE_EQ(r->columns[1]->ValueAt<double>(0), 10.0);
  EXPECT_EQ(r->columns[0]->StringAt(3), "cyd");
}

TEST_F(SqlJoinTest, FiltersPushedBelowJoin) {
  auto r = engine_.Execute(
      "SELECT name, total FROM customers, orders "
      "WHERE id = cid AND age >= 30 AND total > 15 ORDER BY total");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 2u);  // (bob, 20), (ada, 30)
  EXPECT_EQ(r->columns[0]->StringAt(0), "bob");
  EXPECT_EQ(r->columns[0]->StringAt(1), "ada");
}

TEST_F(SqlJoinTest, JoinWithGroupByAndAggregates) {
  auto r = engine_.Execute(
      "SELECT name, count(*), sum(total) FROM customers, orders "
      "WHERE id = cid GROUP BY name ORDER BY name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 3u);
  EXPECT_EQ(r->columns[0]->StringAt(0), "ada");
  EXPECT_EQ(r->columns[1]->ValueAt<int64_t>(0), 2);
  EXPECT_DOUBLE_EQ(r->columns[2]->ValueAt<double>(0), 40.0);
}

TEST_F(SqlJoinTest, GlobalAggregateOverJoin) {
  auto r = engine_.Execute(
      "SELECT count(*), sum(total) FROM customers, orders WHERE id = cid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 4);
  EXPECT_DOUBLE_EQ(r->columns[1]->ValueAt<double>(0), 100.0);
}

TEST_F(SqlJoinTest, QualifiedStarExpansion) {
  auto r = engine_.Execute(
      "SELECT * FROM customers, orders WHERE id = cid LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->names.size(), 6u);
  EXPECT_EQ(r->names[0], "customers.id");
  EXPECT_EQ(r->names[5], "orders.total");
}

TEST_F(SqlJoinTest, JoinErrorCases) {
  // No join predicate: cross products are rejected.
  EXPECT_FALSE(
      engine_.Execute("SELECT name FROM customers, orders").ok());
  // Ambiguity in unqualified names when both tables have the column.
  ASSERT_TRUE(engine_
                  .Execute("CREATE TABLE dup (id INT, total DOUBLE)")
                  .ok());
  EXPECT_FALSE(engine_
                   .Execute("SELECT total FROM orders, dup "
                            "WHERE orders.oid = dup.id")
                   .ok());
  // Unknown qualifier.
  EXPECT_FALSE(engine_
                   .Execute("SELECT ghosts.x FROM customers, orders "
                            "WHERE id = cid")
                   .ok());
  // Join predicate within one table.
  EXPECT_FALSE(engine_
                   .Execute("SELECT name FROM customers, orders "
                            "WHERE customers.id = customers.age")
                   .ok());
}

// ------------------------------------------ Seeded FK join + GROUP BY --
//
// A fact table f joins a small dimension d on f.fk = d.id, the shape of a
// star-schema query. d.id takes the shapes the join kernel routes on: a
// dense key (positional fetch-join) from 0 or from a negative number,
// keys with a gap or a duplicate (hash join), dangling foreign keys, and
// pending inserts that extend or break the dense run. Every answer is
// checked against straight loops, serially and on a pool of 4.

struct FactRow {
  int32_t k;
  int32_t fk;
  int64_t v;
};

struct DimRow {
  int32_t id;
  int32_t grp;
  std::string name;
};

struct FkShape {
  const char* name;
  int32_t first_id;
  int32_t ids;
  int32_t gap;  // an id left out, or first_id - 1 for none
  int32_t fk_lo, fk_hi;
  std::vector<DimRow> inserts;  // pending rows added to d by INSERT
};

/// Past twice the pool's grain, so the pool-4 runs take the parallel
/// select, projection and aggregate kernels.
constexpr int32_t kFactRows = 300000;

TablePtr FactTable(const std::vector<FactRow>& rows) {
  BatPtr k = Bat::New(PhysType::kInt32);
  BatPtr fk = Bat::New(PhysType::kInt32);
  BatPtr v = Bat::New(PhysType::kInt64);
  for (const FactRow& r : rows) {
    k->Append<int32_t>(r.k);
    fk->Append<int32_t>(r.fk);
    v->Append<int64_t>(r.v);
  }
  auto t = Table::FromColumns(
      "f",
      {{"k", PhysType::kInt32}, {"fk", PhysType::kInt32},
       {"v", PhysType::kInt64}},
      {k, fk, v});
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

TablePtr DimTable(const std::vector<DimRow>& rows) {
  BatPtr id = Bat::New(PhysType::kInt32);
  BatPtr grp = Bat::New(PhysType::kInt32);
  BatPtr name = Bat::NewString(nullptr);
  for (const DimRow& r : rows) {
    id->Append<int32_t>(r.id);
    grp->Append<int32_t>(r.grp);
    name->AppendString(r.name);
  }
  auto t = Table::FromColumns(
      "d",
      {{"id", PhysType::kInt32}, {"grp", PhysType::kInt32},
       {"name", PhysType::kStr}},
      {id, grp, name});
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

/// Calls `fn(fact, dim)` for every joined pair with k in [klo, khi].
void ForEachJoined(const std::vector<FactRow>& f, const std::vector<DimRow>& d,
                   int32_t klo, int32_t khi,
                   const std::function<void(const FactRow&, const DimRow&)>& fn) {
  for (const FactRow& fr : f) {
    if (fr.k < klo || fr.k > khi) continue;
    for (const DimRow& dr : d) {
      if (dr.id == fr.fk) fn(fr, dr);
    }
  }
}

/// grp: (COUNT(*), SUM(v)) of the joined rows.
using GroupAnswer = std::map<int32_t, std::pair<int64_t, int64_t>>;
/// k: the names of every d row that k's fact row joins.
using TopNAnswer =
    std::map<int32_t, std::vector<std::string>, std::greater<>>;

struct FkAnswers {
  GroupAnswer group;
  TopNAnswer names_of;
};

FkAnswers StraightLoopAnswers(const std::vector<FactRow>& f,
                              const std::vector<DimRow>& d, int32_t klo,
                              int32_t khi) {
  FkAnswers out;
  ForEachJoined(f, d, klo, khi, [&](const FactRow& fr, const DimRow& dr) {
    out.group[dr.grp].first += 1;
    out.group[dr.grp].second += fr.v;
    out.names_of[fr.k].push_back(dr.name);
  });
  return out;
}

void ExpectJoinGroupMatches(Engine& engine, const parallel::ExecContext& ctx,
                            const GroupAnswer& want, int32_t klo,
                            int32_t khi) {
  auto r = engine.Execute(
      "SELECT grp, COUNT(*), SUM(v) FROM f, d WHERE fk = id AND k >= " +
          std::to_string(klo) + " AND k <= " + std::to_string(khi) +
          " GROUP BY grp ORDER BY grp",
      ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  GroupAnswer got;
  for (size_t i = 0; i < r->RowCount(); ++i) {
    got[r->columns[0]->ValueAt<int32_t>(i)] = {
        r->columns[1]->ValueAt<int64_t>(i), r->columns[2]->ValueAt<int64_t>(i)};
  }
  EXPECT_EQ(got, want);
}

/// The top-10 rows by k. k is unique in f, so the k column is exact; a k
/// that joins more than one d row brings one name per row, and only at
/// the cut may the engine keep any of them.
void ExpectJoinTopNMatches(Engine& engine, const parallel::ExecContext& ctx,
                           const TopNAnswer& names_of, int32_t klo,
                           int32_t khi) {
  constexpr size_t kLimit = 10;
  std::vector<int32_t> want_k;
  for (const auto& [k, names] : names_of) {
    for (size_t i = 0; i < names.size() && want_k.size() < kLimit; ++i) {
      want_k.push_back(k);
    }
  }
  auto r = engine.Execute(
      "SELECT k, name FROM f, d WHERE fk = id AND k >= " +
          std::to_string(klo) + " AND k <= " + std::to_string(khi) +
          " ORDER BY k DESC LIMIT 10",
      ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int32_t> got_k;
  std::map<int32_t, std::vector<std::string>> got_names;
  for (size_t i = 0; i < r->RowCount(); ++i) {
    got_k.push_back(r->columns[0]->ValueAt<int32_t>(i));
    got_names[got_k.back()].emplace_back(r->columns[1]->StringAt(i));
  }
  ASSERT_EQ(got_k, want_k);
  for (auto& [k, names] : got_names) {
    std::vector<std::string> all = names_of.at(k);
    std::sort(all.begin(), all.end());
    std::sort(names.begin(), names.end());
    if (k == want_k.back()) {
      EXPECT_TRUE(std::includes(all.begin(), all.end(), names.begin(),
                                names.end()))
          << "k " << k;
    } else {
      EXPECT_EQ(names, all) << "k " << k;
    }
  }
}

TEST(SqlFkJoinTest, JoinGroupAndTopNMatchStraightLoops) {
  const std::vector<FkShape> shapes = {
      {"dense from 0", 0, 64, -1, 0, 63, {}},
      {"dense from -100", -100, 64, -101, -100, -37, {}},
      {"one gap", 0, 65, 17, 0, 64, {}},
      {"dangling fks", 0, 64, -1, -30, 100, {}},
      {"insert extends the run", 0, 64, -1, 0, 70, {{64, 3, "ext64"}}},
      {"insert duplicates an id", 0, 64, -1, 0, 63, {{5, 6, "dup5"}}},
  };
  parallel::TaskPool pool(4);
  const parallel::ExecContext par(&pool);
  uint64_t seed = 61;
  for (const FkShape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    Rng rng(seed++);
    std::vector<FactRow> f;
    for (int32_t i = 0; i < kFactRows; ++i) {
      f.push_back({i,
                   static_cast<int32_t>(
                       rng.UniformRange(shape.fk_lo, shape.fk_hi)),
                   static_cast<int64_t>(rng.Uniform(1000000))});
    }
    std::vector<DimRow> d;
    for (int32_t i = 0; i < shape.ids; ++i) {
      const int32_t id = shape.first_id + i;
      if (id == shape.gap) continue;
      d.push_back({id, static_cast<int32_t>(rng.Uniform(8)),
                   std::string("n").append(std::to_string(id))});
    }

    Engine engine;
    ASSERT_TRUE(engine.catalog()->Register(FactTable(f)).ok());
    ASSERT_TRUE(engine.catalog()->Register(DimTable(d)).ok());
    for (const DimRow& row : shape.inserts) {
      ASSERT_TRUE(engine
                      .Execute("INSERT INTO d VALUES (" +
                               std::to_string(row.id) + ", " +
                               std::to_string(row.grp) + ", '" + row.name +
                               "')")
                      .ok());
      d.push_back(row);
    }
    auto dim = engine.catalog()->Get("d");
    ASSERT_TRUE(dim.ok());
    EXPECT_EQ((*dim)->PendingInsertCount(), shape.inserts.size());

    for (const auto& [klo, khi] :
         {std::pair<int32_t, int32_t>{0, kFactRows - 1}, {1000, 77777}}) {
      const FkAnswers want = StraightLoopAnswers(f, d, klo, khi);
      for (const parallel::ExecContext* ctx :
           {&parallel::ExecContext::Serial(), &par}) {
        ExpectJoinGroupMatches(engine, *ctx, want.group, klo, khi);
        ExpectJoinTopNMatches(engine, *ctx, want.names_of, klo, khi);
      }
    }
  }
}

TEST(SqlParserTest, RejectsGarbage) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t LIMIT -3").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES (1,)").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t (a BLOB)").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE s = 'unterminated").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t; DROP TABLE t").ok());
}

}  // namespace
}  // namespace mammoth::sql
