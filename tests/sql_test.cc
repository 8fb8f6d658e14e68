#include "sql/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <string>
#include <variant>
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

// ------------------------------------------- ORDER BY / LIMIT / HAVING --

/// One result cell; integer columns widen to int64_t.
using Cell = std::variant<int64_t, double, std::string>;
using Rows = std::vector<std::vector<Cell>>;

/// Bit-for-bit equality: doubles compare by their bits, not by ==.
bool SameRows(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Cell& x = a[r][c];
      const Cell& y = b[r][c];
      if (x.index() != y.index()) return false;
      if (x.index() == 1
              ? std::bit_cast<uint64_t>(std::get<double>(x)) !=
                    std::bit_cast<uint64_t>(std::get<double>(y))
              : x != y) {
        return false;
      }
    }
  }
  return true;
}

Rows ToRows(const mal::QueryResult& r) {
  Rows rows(r.RowCount());
  for (const BatPtr& col : r.columns) {
    for (size_t i = 0; i < rows.size(); ++i) {
      switch (col->type()) {
        case PhysType::kStr:
          rows[i].emplace_back(std::string(col->StringAt(i)));
          break;
        case PhysType::kDouble:
          rows[i].emplace_back(col->ValueAt<double>(i));
          break;
        case PhysType::kInt64:
          rows[i].emplace_back(col->ValueAt<int64_t>(i));
          break;
        case PhysType::kInt32:
          rows[i].emplace_back(int64_t{col->ValueAt<int32_t>(i)});
          break;
        default:
          ADD_FAILURE() << "unexpected result type";
          return rows;
      }
    }
  }
  return rows;
}

struct OrdRow {
  int32_t i;
  double x;
  std::string s;
  int32_t g;
  int32_t v;
  int32_t fk;
};
struct OrdDim {
  int32_t id;
  int32_t w;
  std::string t;
};

/// A generated SELECT: one or two tables, grouped or not, a `v` range in
/// WHERE, HAVING over the aggregates, ORDER BY keys and a LIMIT.
struct OrdQuery {
  bool join = false;
  bool group = false;
  int32_t vlo = 0, vhi = 0;
  struct Having {
    std::string label, op;
    Value literal;
  };
  std::vector<Having> having;
  std::vector<OrderKey> order;
  int64_t limit = -1;

  std::vector<std::string> Items() const {
    if (group) {
      return {join ? "t" : "g", "count(*)", "sum(v)", "avg(x)"};
    }
    if (join) return {"i", "x", "s", "w", "t"};
    return {"i", "x", "s", "v"};
  }
  /// The statement text; with `params` every literal is a `?` instead.
  std::string Sql(bool params) const {
    auto lit = [params](const Value& v) {
      return params ? std::string("?") : v.ToString();
    };
    std::string sql = "SELECT ";
    const std::vector<std::string> items = Items();
    for (size_t c = 0; c < items.size(); ++c) {
      sql += (c > 0 ? ", " : "") + items[c];
    }
    sql += join ? " FROM a, b WHERE fk = id AND " : " FROM a WHERE ";
    sql += "v >= " + lit(Value::Int(vlo)) + " AND v <= " +
           lit(Value::Int(vhi));
    if (group) sql += join ? " GROUP BY t" : " GROUP BY g";
    for (size_t h = 0; h < having.size(); ++h) {
      sql += (h == 0 ? " HAVING " : " AND ") + having[h].label + " " +
             having[h].op + " " + lit(having[h].literal);
    }
    for (size_t k = 0; k < order.size(); ++k) {
      sql += (k == 0 ? " ORDER BY " : ", ") + order[k].label +
             (order[k].desc ? " DESC" : "");
    }
    if (limit >= 0) sql += " LIMIT " + std::to_string(limit);
    return sql;
  }
  std::vector<Value> Params() const {
    std::vector<Value> p = {Value::Int(vlo), Value::Int(vhi)};
    for (const Having& h : having) p.push_back(h.literal);
    return p;
  }
};

/// The oracle: straight loops over the rows, the engine's row order
/// before ORDER BY (table order; join pairs in probe order, every id
/// being unique; groups in first-appearance order), then std::stable_sort
/// and a truncation.
Rows OrdOracle(const OrdQuery& q, const std::vector<OrdRow>& a,
               const std::vector<OrdDim>& b) {
  std::map<int32_t, const OrdDim*> by_id;
  for (const OrdDim& d : b) by_id[d.id] = &d;
  Rows rows;
  struct Group {
    Cell key;
    int64_t count = 0, sum_v = 0;
    double sum_x = 0;
  };
  std::vector<Group> groups;
  std::map<std::string, size_t> group_of;
  for (const OrdRow& r : a) {
    if (r.v < q.vlo || r.v > q.vhi) continue;
    const OrdDim* d = nullptr;
    if (q.join) {
      auto it = by_id.find(r.fk);
      if (it == by_id.end()) continue;
      d = it->second;
    }
    if (!q.group) {
      if (q.join) {
        rows.push_back({int64_t{r.i}, r.x, r.s, int64_t{d->w}, d->t});
      } else {
        rows.push_back({int64_t{r.i}, r.x, r.s, int64_t{r.v}});
      }
      continue;
    }
    const Cell key = q.join ? Cell{d->t} : Cell{int64_t{r.g}};
    const std::string name = q.join ? d->t : std::to_string(r.g);
    auto [it, fresh] = group_of.emplace(name, groups.size());
    if (fresh) groups.push_back({key});
    Group& g = groups[it->second];
    g.count += 1;
    g.sum_v += r.v;
    g.sum_x += r.x;
  }
  for (const Group& g : groups) {
    rows.push_back({g.key, g.count, g.sum_v,
                    g.sum_x / static_cast<double>(g.count)});
  }
  const std::vector<std::string> items = q.Items();
  auto column = [&](const std::string& label) {
    return static_cast<size_t>(
        std::find(items.begin(), items.end(), label) - items.begin());
  };
  for (const OrdQuery::Having& h : q.having) {
    const size_t c = column(h.label);
    Rows kept;
    for (std::vector<Cell>& row : rows) {
      const double v = row[c].index() == 0
                           ? static_cast<double>(std::get<int64_t>(row[c]))
                           : std::get<double>(row[c]);
      const double lit = h.literal.AsReal();
      const bool pass = h.op == ">=" ? v >= lit
                        : h.op == ">" ? v > lit
                        : h.op == "<" ? v < lit
                                      : v <= lit;
      if (pass) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const std::vector<Cell>& l,
                       const std::vector<Cell>& r) {
                     for (const OrderKey& k : q.order) {
                       const size_t c = column(k.label);
                       if (l[c] < r[c]) return !k.desc;
                       if (r[c] < l[c]) return k.desc;
                     }
                     return false;
                   });
  if (q.limit >= 0 && rows.size() > static_cast<size_t>(q.limit)) {
    rows.resize(static_cast<size_t>(q.limit));
  }
  return rows;
}

OrdQuery RandomOrdQuery(Rng& rng) {
  OrdQuery q;
  q.join = rng.Uniform(2) == 1;
  q.group = rng.Uniform(2) == 1;
  const int32_t width =
      std::vector<int32_t>{999, 999, 400, 60}[rng.Uniform(4)];
  q.vlo = static_cast<int32_t>(rng.Uniform(999 - width + 1));
  q.vhi = q.vlo + width - 1;
  const std::vector<std::string> items = q.Items();
  if (q.group) {
    const size_t nh = rng.Uniform(3);
    for (size_t h = 0; h < nh; ++h) {
      switch (rng.Uniform(3)) {
        case 0:
          q.having.push_back(
              {"count(*)", rng.Uniform(2) ? ">=" : "<",
               Value::Int(std::vector<int64_t>{1, 900, 2000, 9000}
                              [rng.Uniform(4)])});
          break;
        case 1:
          q.having.push_back(
              {"sum(v)", rng.Uniform(2) ? ">" : "<=",
               Value::Int(std::vector<int64_t>{0, 400000, 2500000}
                              [rng.Uniform(3)])});
          break;
        default:
          q.having.push_back(
              {"avg(x)", rng.Uniform(2) ? "<" : ">=",
               Value::Real(std::vector<double>{-0.5, -0.25, 0.0, 0.25}
                               [rng.Uniform(4)])});
      }
    }
  }
  if (rng.Uniform(5) != 0) {
    std::vector<size_t> cols(items.size());
    for (size_t c = 0; c < cols.size(); ++c) cols[c] = c;
    for (size_t c = cols.size(); c > 1; --c) {
      std::swap(cols[c - 1], cols[rng.Uniform(c)]);
    }
    const size_t nkeys = 1 + rng.Uniform(3);
    for (size_t k = 0; k < nkeys; ++k) {
      q.order.push_back({items[cols[k]], rng.Uniform(2) == 1});
    }
  }
  switch (rng.Uniform(6)) {
    case 0:
      q.limit = 0;
      break;
    case 1:
      q.limit = 1;
      break;
    case 2:
      q.limit = 2 + static_cast<int64_t>(rng.Uniform(40));
      break;
    case 3:
      q.limit = 1000000;  // at least the row count
      break;
    default:
      break;
  }
  return q;
}

/// ORDER BY (1–3 keys, ASC and DESC mixed, over tied int, double and TEXT
/// values), LIMIT (0, 1, k and past the row count) and HAVING (COUNT, SUM
/// and AVG, ANDed), alone and together, over one table and over a join,
/// all compiled into the MAL plan: each answer equals the straight-loop,
/// std::stable_sort oracle bit for bit on every arm — pools 1 and 4, SQL
/// text and PREPARE/EXECUTE with `?` literals (HAVING's included), and a
/// merged table against one whose rows are half pending inserts, with
/// deleted rows in both its main image and its delta.
TEST(SqlOrderDiffTest, SeededOrderLimitHavingMatchStableSortOracle) {
  // Past the pool's grain, so whole-table sorts and top-k run parallel.
  constexpr size_t kRows = 80000;
  constexpr int32_t kDims = 200;
  Rng rng(2027);
  std::vector<OrdRow> a;
  for (size_t r = 0; r < kRows; ++r) {
    a.push_back({static_cast<int32_t>(rng.Uniform(50)) - 25,
                 (static_cast<double>(rng.Uniform(40)) - 20) * 0.5,
                 "w" + std::to_string(rng.Uniform(30)),
                 static_cast<int32_t>(rng.Uniform(12)),
                 static_cast<int32_t>(rng.Uniform(999)),
                 static_cast<int32_t>(rng.Uniform(kDims + 10)) - 5});
  }
  std::vector<OrdDim> b;
  for (int32_t id = 0; id < kDims; ++id) {
    b.push_back({id, static_cast<int32_t>(rng.Uniform(7)),
                 "t" + std::to_string(rng.Uniform(9))});
  }

  // `v = 999` marks a junk row the pending engine inserts and deletes.
  auto a_table = [](const std::vector<OrdRow>& rows) {
    BatPtr i = Bat::New(PhysType::kInt32), x = Bat::New(PhysType::kDouble),
           s = Bat::NewString(nullptr), g = Bat::New(PhysType::kInt32),
           v = Bat::New(PhysType::kInt32), fk = Bat::New(PhysType::kInt32);
    for (const OrdRow& r : rows) {
      i->Append<int32_t>(r.i);
      x->Append<double>(r.x);
      s->AppendString(r.s);
      g->Append<int32_t>(r.g);
      v->Append<int32_t>(r.v);
      fk->Append<int32_t>(r.fk);
    }
    auto t = Table::FromColumns(
        "a",
        {{"i", PhysType::kInt32}, {"x", PhysType::kDouble},
         {"s", PhysType::kStr}, {"g", PhysType::kInt32},
         {"v", PhysType::kInt32}, {"fk", PhysType::kInt32}},
        {i, x, s, g, v, fk});
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return *t;
  };
  auto b_table = [](const std::vector<OrdDim>& rows) {
    BatPtr id = Bat::New(PhysType::kInt32), w = Bat::New(PhysType::kInt32),
           t = Bat::NewString(nullptr);
    for (const OrdDim& r : rows) {
      id->Append<int32_t>(r.id);
      w->Append<int32_t>(r.w);
      t->AppendString(r.t);
    }
    auto tab = Table::FromColumns(
        "b",
        {{"id", PhysType::kInt32}, {"w", PhysType::kInt32},
         {"t", PhysType::kStr}},
        {id, w, t});
    EXPECT_TRUE(tab.ok()) << tab.status().ToString();
    return *tab;
  };
  auto junk = [](size_t r) {
    return OrdRow{0, 0.0, "junk", 0, 999, static_cast<int32_t>(r % 7)};
  };

  Engine merged;
  ASSERT_TRUE(merged.catalog()->Register(a_table(a)).ok());
  ASSERT_TRUE(merged.catalog()->Register(b_table(b)).ok());

  // Half of each table pending; junk rows in both halves, then deleted.
  Engine pending;
  std::vector<OrdRow> a_main;
  for (size_t r = 0; r < kRows / 2; ++r) {
    if (r % 97 == 0) a_main.push_back(junk(r));
    a_main.push_back(a[r]);
  }
  ASSERT_TRUE(pending.catalog()->Register(a_table(a_main)).ok());
  ASSERT_TRUE(pending.catalog()
                  ->Register(b_table({b.begin(), b.begin() + kDims / 2}))
                  .ok());
  std::string insert;
  auto flush = [&](const std::string& table) {
    ASSERT_TRUE(pending.Execute("INSERT INTO " + table + " VALUES " + insert)
                    .ok());
    insert.clear();
  };
  for (size_t r = kRows / 2; r < kRows; ++r) {
    for (const OrdRow& row :
         r % 89 == 0 ? std::vector<OrdRow>{junk(r), a[r]}
                     : std::vector<OrdRow>{a[r]}) {
      insert += std::string(insert.empty() ? "" : ", ") + "(" +
                std::to_string(row.i) + ", " + std::to_string(row.x) +
                ", '" + row.s + "', " + std::to_string(row.g) + ", " +
                std::to_string(row.v) + ", " + std::to_string(row.fk) + ")";
    }
    if ((r + 1) % 2000 == 0 || r + 1 == kRows) flush("a");
  }
  for (int32_t id = kDims / 2; id < kDims; ++id) {
    insert += std::string(insert.empty() ? "" : ", ") + "(" +
              std::to_string(id) + ", " + std::to_string(b[id].w) + ", '" +
              b[id].t + "')";
  }
  flush("b");
  ASSERT_TRUE(pending.Execute("DELETE FROM a WHERE v = 999").ok());
  auto pending_a = pending.catalog()->Get("a");
  ASSERT_TRUE(pending_a.ok());
  ASSERT_GT((*pending_a)->PendingInsertCount(), kRows / 2);

  parallel::TaskPool pool(4);
  const parallel::ExecContext par(&pool);
  const std::vector<std::pair<const char*, Engine*>> engines = {
      {"merged", &merged}, {"pending", &pending}};
  const std::vector<std::pair<const char*, const parallel::ExecContext*>>
      ctxs = {{"pool 1", &parallel::ExecContext::Serial()},
              {"pool 4", &par}};

  size_t topn = 0, chains = 0, sliced = 0, having_ordered = 0,
         limit_zero = 0, limit_past = 0, big = 0;
  for (int n = 0; n < 36; ++n) {
    const OrdQuery q = RandomOrdQuery(rng);
    const std::string sql = q.Sql(false);
    SCOPED_TRACE(sql);
    const Rows want = OrdOracle(q, a, b);
    topn += q.order.size() == 1 && q.limit >= 0;
    chains += q.order.size() > 1;
    sliced += q.order.size() != 1 && q.limit >= 0;
    having_ordered += !q.having.empty() && !q.order.empty();
    limit_zero += q.limit == 0;
    limit_past += q.limit >= static_cast<int64_t>(kRows);
    big += want.size() > parallel::TaskPool::kDefaultGrain &&
           !q.order.empty();
    auto prepared = merged.Prepare(q.Sql(true));
    auto prepared_pending = pending.Prepare(q.Sql(true));
    ASSERT_TRUE(prepared.ok() && prepared_pending.ok())
        << prepared.status().ToString();
    for (const auto& [ename, engine] : engines) {
      const uint64_t id = (engine == &merged ? *prepared : *prepared_pending)
                              ->id;
      for (const auto& [cname, ctx] : ctxs) {
        auto raw = engine->Execute(sql, *ctx);
        ASSERT_TRUE(raw.ok()) << ename << " " << cname << ": "
                              << raw.status().ToString();
        EXPECT_TRUE(SameRows(ToRows(*raw), want))
            << ename << " " << cname << " text: " << raw->RowCount()
            << " rows, oracle " << want.size();
        auto exec = engine->ExecutePrepared(id, q.Params(), *ctx);
        ASSERT_TRUE(exec.ok()) << ename << " " << cname << ": "
                               << exec.status().ToString();
        EXPECT_TRUE(SameRows(ToRows(*exec), want))
            << ename << " " << cname << " prepared: " << exec->RowCount()
            << " rows, oracle " << want.size();
      }
    }
  }
  // The seed covers every shape the compiler distinguishes.
  EXPECT_GT(topn, 0u);
  EXPECT_GT(chains, 0u);
  EXPECT_GT(sliced, 0u);
  EXPECT_GT(having_ordered, 0u);
  EXPECT_GT(limit_zero, 0u);
  EXPECT_GT(limit_past, 0u);
  EXPECT_GT(big, 0u);
}

/// ORDER BY, LIMIT and HAVING run inside the MAL plan: the plan text
/// names their instructions and the run stats count them.
TEST(SqlOrderDiffTest, PlanShowsTopNSortAndSlice) {
  Engine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE f (k INT, lc INT)").ok());
  ASSERT_TRUE(engine.Execute("CREATE TABLE d (id INT, name TEXT)").ok());
  ASSERT_TRUE(engine
                  .Execute("INSERT INTO f VALUES (1, 0), (2, 1), (3, 0), "
                           "(4, 1), (5, 0)")
                  .ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO d VALUES (0, 'a'), (1, 'b')").ok());
  auto instructions_in = [](const std::string& plan) {
    return static_cast<uint64_t>(std::count(plan.begin(), plan.end(), ';'));
  };

  auto r = engine.Execute(
      "SELECT k, name FROM f, d WHERE lc = id AND k >= 2 AND k <= 5 "
      "ORDER BY k DESC LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 2u);
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(0), 5);
  EXPECT_EQ(r->columns[1]->StringAt(1), "b");
  std::string plan = engine.last_plan_text();
  EXPECT_NE(plan.find("algebra.firstn("), std::string::npos) << plan;
  EXPECT_EQ(plan.find("algebra.sort("), std::string::npos) << plan;
  EXPECT_EQ(plan.find("algebra.slice("), std::string::npos) << plan;
  EXPECT_EQ(engine.last_run_stats().instructions, instructions_in(plan));

  r = engine.Execute(
      "SELECT lc, count(*), sum(k) FROM f GROUP BY lc "
      "HAVING count(*) >= 1 ORDER BY lc DESC, sum(k) LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 1u);
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(0), 1);
  EXPECT_EQ(r->columns[2]->ValueAt<int64_t>(0), 6);
  plan = engine.last_plan_text();
  EXPECT_EQ(std::count(plan.begin(), plan.end(), '\n'),
            std::count(plan.begin(), plan.end(), ';'));
  EXPECT_NE(plan.find("algebra.thetaselect("), std::string::npos) << plan;
  EXPECT_NE(plan.find("algebra.sort("), std::string::npos) << plan;
  EXPECT_NE(plan.find("algebra.slice("), std::string::npos) << plan;
  EXPECT_EQ(plan.find("algebra.firstn("), std::string::npos) << plan;
  // The result set comes last, after every ordering step.
  EXPECT_LT(plan.rfind("algebra.slice("), plan.find("sql.resultSet("));
  EXPECT_EQ(engine.last_run_stats().instructions, instructions_in(plan));

  // Labels are resolved while compiling: a key or HAVING term outside the
  // select list is still kInvalidArgument.
  for (const std::string bad :
       {"SELECT k FROM f ORDER BY lc", "SELECT k FROM f ORDER BY k, lc",
        "SELECT lc FROM f GROUP BY lc HAVING sum(k) > 1"}) {
    auto e = engine.Execute(bad);
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument) << bad;
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
