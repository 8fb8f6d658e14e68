#include <gtest/gtest.h>

#include <filesystem>

#include "core/catalog.h"
#include "core/persist.h"
#include "core/table.h"
#include "sql/engine.h"
#include "wal/db.h"
#include "test_dirs.h"

namespace mammoth {
namespace {

class TablePersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::ProcessTempPath(
        std::string("mammoth_db_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TablePtr MakeTable() {
  auto t = Table::Create("animals", {{"name", PhysType::kStr},
                                     {"legs", PhysType::kInt32},
                                     {"mass", PhysType::kDouble}});
  EXPECT_TRUE(t.ok());
  const struct {
    const char* name;
    int legs;
    double mass;
  } rows[] = {{"mammoth", 4, 6000.0},
              {"tyrannosaurus", 2, 7000.0},
              {"human", 2, 70.0},
              {"spider", 8, 0.01}};
  for (const auto& r : rows) {
    EXPECT_TRUE((*t)->Insert({Value::Str(r.name), Value::Int(r.legs),
                              Value::Real(r.mass)})
                    .ok());
  }
  return *t;
}

TEST_F(TablePersistTest, SaveLoadRoundTrip) {
  TablePtr t = MakeTable();
  ASSERT_TRUE(SaveTable(*t, dir_).ok());
  auto loaded = LoadTable(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "animals");
  EXPECT_EQ((*loaded)->VisibleRowCount(), 4u);
  auto name = (*loaded)->ScanColumn("name");
  auto mass = (*loaded)->ScanColumn("mass");
  ASSERT_TRUE(name.ok() && mass.ok());
  EXPECT_EQ((*name)->StringAt(0), "mammoth");
  EXPECT_DOUBLE_EQ((*mass)->ValueAt<double>(3), 0.01);
}

TEST_F(TablePersistTest, SaveWritesVisibleImage) {
  TablePtr t = MakeTable();
  ASSERT_TRUE(t->Delete(MakeBat<Oid>({Oid{1}})).ok());  // extinct
  ASSERT_TRUE(SaveTable(*t, dir_).ok());
  // The original is untouched (delta state preserved)...
  EXPECT_EQ(t->DeletedCount(), 1u);
  EXPECT_EQ(t->PendingInsertCount(), 4u);
  // ...while the saved image is merged and compacted.
  auto loaded = LoadTable(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->VisibleRowCount(), 3u);
  auto name = (*loaded)->ScanColumn("name");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ((*name)->StringAt(1), "human");
}

TEST_F(TablePersistTest, MmapLoadIsReadableAndUpdatable) {
  TablePtr t = MakeTable();
  ASSERT_TRUE(SaveTable(*t, dir_).ok());
  auto loaded = LoadTable(dir_, /*use_mmap=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto legs = (*loaded)->ScanColumn("legs");
  ASSERT_TRUE(legs.ok());
  EXPECT_EQ((*legs)->ValueAt<int32_t>(3), 8);
  // Updates must still work (copy-on-write off the mapping).
  ASSERT_TRUE((*loaded)
                  ->Insert({Value::Str("ant"), Value::Int(6),
                            Value::Real(0.000003)})
                  .ok());
  ASSERT_TRUE((*loaded)->MergeDeltas().ok());
  EXPECT_EQ((*loaded)->VisibleRowCount(), 5u);
}

TEST_F(TablePersistTest, LoadMissingDirFails) {
  EXPECT_FALSE(LoadTable(dir_ + "/nope").ok());
}

TEST_F(TablePersistTest, CatalogRoundTripThroughSql) {
  sql::Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(
                      "CREATE TABLE a (x INT);"
                      "INSERT INTO a VALUES (1), (2);"
                      "CREATE TABLE b (y VARCHAR(8));"
                      "INSERT INTO b VALUES ('hi');")
                  .ok());
  ASSERT_TRUE(SaveCatalog(*engine.catalog(), dir_).ok());

  auto catalog = LoadCatalog(dir_);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_TRUE((*catalog)->Contains("a"));
  EXPECT_TRUE((*catalog)->Contains("b"));
  auto a = (*catalog)->Get("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->VisibleRowCount(), 2u);
}

/// Edge shapes through a full catalog round trip, with and without mmap:
/// a table with uncompacted deletes, a delta-only table (all rows still
/// pending in insert deltas) and an empty table.
TEST_F(TablePersistTest, CatalogEdgeShapesRoundTripWithAndWithoutMmap) {
  sql::Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(
                      "CREATE TABLE holed (x INT, s VARCHAR(8));"
                      "INSERT INTO holed VALUES (1, 'a'), (2, 'b'), "
                      "(3, 'c'), (4, 'd');"
                      "DELETE FROM holed WHERE x = 2;"
                      "CREATE TABLE delta_only (y DOUBLE);"
                      "INSERT INTO delta_only VALUES (0.5), (1.5);"
                      "CREATE TABLE never_used (z BIGINT)")
                  .ok());
  // The shapes are what the test claims: nothing has been compacted.
  auto holed = engine.catalog()->Get("holed");
  ASSERT_TRUE(holed.ok());
  ASSERT_EQ((*holed)->DeletedCount(), 1u);
  auto delta_only = engine.catalog()->Get("delta_only");
  ASSERT_TRUE(delta_only.ok());
  ASSERT_EQ((*delta_only)->PendingInsertCount(), 2u);
  ASSERT_EQ((*delta_only)->MainColumn(0)->Count(), 0u);

  ASSERT_TRUE(SaveCatalog(*engine.catalog(), dir_).ok());

  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "copy");
    auto loaded = LoadCatalog(dir_, use_mmap);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(wal::CompareCatalogs(*engine.catalog(), **loaded).ok());

    // The hole was compacted away on disk.
    auto h = (*loaded)->Get("holed");
    ASSERT_TRUE(h.ok());
    EXPECT_EQ((*h)->VisibleRowCount(), 3u);
    EXPECT_EQ((*h)->DeletedCount(), 0u);
    auto x = (*h)->ScanColumn("x");
    ASSERT_TRUE(x.ok());
    EXPECT_EQ((*x)->ValueAt<int32_t>(1), 3);

    // An empty table must load empty and still accept DML.
    auto e = (*loaded)->Get("never_used");
    ASSERT_TRUE(e.ok());
    EXPECT_EQ((*e)->VisibleRowCount(), 0u);
    ASSERT_TRUE((*e)->Insert({Value::Int(9)}).ok());
    EXPECT_EQ((*e)->VisibleRowCount(), 1u);
  }
}

TEST_F(TablePersistTest, EmptyTableSurvivesDirectSaveLoad) {
  auto created = Table::Create(
      "empty", {{"n", PhysType::kInt64}, {"s", PhysType::kStr}});
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(SaveTable(**created, dir_).ok());
  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "copy");
    auto loaded = LoadTable(dir_, use_mmap);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->VisibleRowCount(), 0u);
    EXPECT_EQ((*loaded)->NumColumns(), 2u);
  }
}

TEST_F(TablePersistTest, FromColumnsValidates) {
  BatPtr ints = MakeBat<int32_t>({1, 2});
  BatPtr longs = MakeBat<int64_t>({1});
  EXPECT_FALSE(
      Table::FromColumns("t", {{"x", PhysType::kInt32}}, {}).ok());
  EXPECT_FALSE(Table::FromColumns("t", {{"x", PhysType::kInt32}}, {longs})
                   .ok());
  EXPECT_FALSE(Table::FromColumns("t",
                                  {{"x", PhysType::kInt32},
                                   {"y", PhysType::kInt64}},
                                  {ints, longs})
                   .ok());  // lengths differ
  auto ok = Table::FromColumns("t", {{"x", PhysType::kInt32}}, {ints});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->VisibleRowCount(), 2u);
}

}  // namespace
}  // namespace mammoth
