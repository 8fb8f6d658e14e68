#include "core/bat.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/persist.h"
#include "test_dirs.h"

namespace mammoth {
namespace {

TEST(ColumnTest, AppendAndRead) {
  Column c(PhysType::kInt32);
  for (int32_t i = 0; i < 1000; ++i) c.Append<int32_t>(i * 2);
  ASSERT_EQ(c.size(), 1000u);
  const int32_t* v = c.Data<int32_t>();
  for (int32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * 2);
}

TEST(ColumnTest, AlignmentIsCacheLine) {
  Column c(PhysType::kInt64);
  c.Reserve(10);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c.raw_data()) % Column::kAlignment,
            0u);
}

TEST(ColumnTest, MoveTransfersOwnership) {
  Column a(PhysType::kInt32);
  a.Append<int32_t>(7);
  Column b = std::move(a);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.Data<int32_t>()[0], 7);
}

TEST(ColumnTest, CloneIsDeep) {
  Column a(PhysType::kInt32);
  a.Append<int32_t>(1);
  Column b = a.Clone();
  b.Data<int32_t>()[0] = 2;
  EXPECT_EQ(a.Data<int32_t>()[0], 1);
}

TEST(ColumnTest, AdoptExternalCopiesOnGrowth) {
  int32_t external[4] = {1, 2, 3, 4};
  Column c(PhysType::kInt32);
  c.AdoptExternal(external, 4);
  EXPECT_FALSE(c.owns());
  c.Append<int32_t>(5);  // must trigger copy-on-write
  EXPECT_TRUE(c.owns());
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c.Data<int32_t>()[4], 5);
  EXPECT_EQ(external[0], 1);
}

TEST(BatTest, DenseHeadIsVirtual) {
  BatPtr b = MakeBat<int32_t>({10, 20, 30});
  EXPECT_EQ(b->Count(), 3u);
  EXPECT_EQ(b->hseqbase(), 0u);
  EXPECT_EQ(b->ValueAt<int32_t>(1), 20);
}

TEST(BatTest, DenseTailNeedsNoPayload) {
  BatPtr b = Bat::NewDense(100, 50);
  EXPECT_TRUE(b->IsDenseTail());
  EXPECT_EQ(b->Count(), 50u);
  EXPECT_EQ(b->PayloadBytes(), 0u);
  EXPECT_EQ(b->OidAt(0), 100u);
  EXPECT_EQ(b->OidAt(49), 149u);
  EXPECT_TRUE(b->props().sorted);
  EXPECT_TRUE(b->props().key);
}

TEST(BatTest, MaterializeDense) {
  BatPtr b = Bat::NewDense(5, 3);
  b->MaterializeDense();
  EXPECT_FALSE(b->IsDenseTail());
  ASSERT_EQ(b->Count(), 3u);
  EXPECT_EQ(b->TailData<Oid>()[0], 5u);
  EXPECT_EQ(b->TailData<Oid>()[2], 7u);
}

TEST(BatTest, DerivePropsSorted) {
  BatPtr b = MakeBat<int32_t>({1, 2, 2, 5});
  b->DeriveProps();
  EXPECT_TRUE(b->props().sorted);
  EXPECT_FALSE(b->props().revsorted);
  EXPECT_FALSE(b->props().key);
}

TEST(BatTest, DerivePropsStrictlyDescending) {
  BatPtr b = MakeBat<int32_t>({9, 5, 1});
  b->DeriveProps();
  EXPECT_FALSE(b->props().sorted);
  EXPECT_TRUE(b->props().revsorted);
  EXPECT_TRUE(b->props().key);
}

TEST(BatTest, MutationInvalidatesProps) {
  BatPtr b = MakeBat<int32_t>({1, 2, 3});
  b->DeriveProps();
  ASSERT_TRUE(b->props().sorted);
  b->MutableTailData<int32_t>()[0] = 99;
  EXPECT_FALSE(b->props().sorted);
}

TEST(BatTest, CloneSharesHeapDeepCopiesTail) {
  BatPtr b = MakeStringBat({"ape", "bee"});
  BatPtr c = b->Clone();
  EXPECT_EQ(b->heap().get(), c->heap().get());
  EXPECT_EQ(c->StringAt(0), "ape");
}

TEST(StringBatTest, InterningDeduplicates) {
  BatPtr b = MakeStringBat({"john", "roger", "john", "john"});
  EXPECT_EQ(b->Count(), 4u);
  EXPECT_EQ(b->heap()->DistinctCount(), 2u);
  EXPECT_EQ(b->StringAt(0), "john");
  EXPECT_EQ(b->StringAt(2), "john");
  // Equal strings share the same offset.
  EXPECT_EQ(b->TailData<uint64_t>()[0], b->TailData<uint64_t>()[2]);
}

TEST(StringHeapTest, FindLocatesInterned) {
  StringHeap h;
  const uint64_t off = h.Put("walrus");
  uint64_t found = 0;
  EXPECT_TRUE(h.Find("walrus", &found));
  EXPECT_EQ(found, off);
  EXPECT_FALSE(h.Find("mammoth", &found));
}

TEST(StringHeapTest, RestoreRoundTrips) {
  StringHeap h;
  h.Put("alpha");
  h.Put("beta");
  StringHeap h2;
  h2.Restore(h.RawBytes(), h.ByteSize());
  EXPECT_EQ(h2.DistinctCount(), 2u);
  uint64_t off = 0;
  ASSERT_TRUE(h2.Find("beta", &off));
  EXPECT_EQ(h2.Get(off), "beta");
}

class PersistTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ =
      testutil::ProcessTempPath("mammoth_persist_test") + ".mbat";
};

TEST_F(PersistTest, SaveLoadNumericRoundTrip) {
  BatPtr b = MakeBat<int64_t>({-5, 0, 7, 1LL << 40});
  b->DeriveProps();
  ASSERT_TRUE(SaveBat(*b, path_).ok());
  auto loaded = LoadBat(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->Count(), 4u);
  EXPECT_EQ((*loaded)->ValueAt<int64_t>(3), 1LL << 40);
  EXPECT_TRUE((*loaded)->props().sorted);
}

TEST_F(PersistTest, MapBatIsZeroCopyReadable) {
  BatPtr b = Bat::New(PhysType::kInt32);
  for (int32_t i = 0; i < 10000; ++i) b->Append<int32_t>(i);
  ASSERT_TRUE(SaveBat(*b, path_).ok());
  auto mapped = MapBat(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE((*mapped)->tail().owns());
  EXPECT_EQ((*mapped)->ValueAt<int32_t>(9999), 9999);
}

TEST_F(PersistTest, SaveLoadStringRoundTrip) {
  BatPtr b = MakeStringBat({"john", "roger", "bob", "john"});
  ASSERT_TRUE(SaveBat(*b, path_).ok());
  auto loaded = LoadBat(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->Count(), 4u);
  EXPECT_EQ((*loaded)->StringAt(1), "roger");
  EXPECT_EQ((*loaded)->StringAt(3), "john");
}

TEST_F(PersistTest, LoadRejectsGarbage) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  std::fputs("not a bat file at all, sorry", f);
  std::fclose(f);
  EXPECT_FALSE(LoadBat(path_).ok());
}

TEST_F(PersistTest, DenseTailSavedMaterialized) {
  BatPtr b = Bat::NewDense(42, 8);
  ASSERT_TRUE(SaveBat(*b, path_).ok());
  auto loaded = LoadBat(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->OidAt(0), 42u);
  EXPECT_EQ((*loaded)->OidAt(7), 49u);
}

}  // namespace
}  // namespace mammoth
