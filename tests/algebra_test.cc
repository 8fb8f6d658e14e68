#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/calc.h"
#include "core/group.h"
#include "core/join.h"
#include "core/project.h"
#include "core/select.h"
#include "core/sort.h"

namespace mammoth::algebra {
namespace {

std::vector<Oid> OidsOf(const BatPtr& b) {
  std::vector<Oid> out;
  out.reserve(b->Count());
  for (size_t i = 0; i < b->Count(); ++i) out.push_back(b->OidAt(i));
  return out;
}

// ---------------------------------------------------------------- Select --

TEST(SelectTest, PaperExampleSelectEq1927) {
  // Figure 1 of the paper: select(age, 1927) over {1907,1927,1927,1968}
  // yields head oids {1,2}.
  BatPtr age = MakeBat<int32_t>({1907, 1927, 1927, 1968});
  auto r = ThetaSelect(age, nullptr, Value::Int(1927), CmpOp::kEq);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{1, 2}));
  EXPECT_TRUE((*r)->props().sorted);
  EXPECT_TRUE((*r)->props().key);
}

TEST(SelectTest, AllCmpOps) {
  BatPtr b = MakeBat<int32_t>({5, 1, 3, 5, 9});
  struct Case {
    CmpOp op;
    std::vector<Oid> expect;
  };
  const Case cases[] = {
      {CmpOp::kLt, {1, 2}},       {CmpOp::kLe, {0, 1, 2, 3}},
      {CmpOp::kEq, {0, 3}},       {CmpOp::kNe, {1, 2, 4}},
      {CmpOp::kGe, {0, 3, 4}},    {CmpOp::kGt, {4}},
  };
  for (const Case& c : cases) {
    auto r = ThetaSelect(b, nullptr, Value::Int(5), c.op);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(OidsOf(*r), c.expect) << CmpOpName(c.op);
  }
}

TEST(SelectTest, SortedInputUsesDenseResult) {
  BatPtr b = MakeBat<int32_t>({1, 3, 5, 7, 9, 11});
  b->DeriveProps();
  ASSERT_TRUE(b->props().sorted);
  auto r = RangeSelect(b, nullptr, Value::Int(4), Value::Int(10));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->IsDenseTail()) << "sorted select should be dense";
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{2, 3, 4}));
}

TEST(SelectTest, SortedThetaGtBinarySearch) {
  BatPtr b = MakeBat<int32_t>({1, 3, 5, 7});
  b->DeriveProps();
  auto r = ThetaSelect(b, nullptr, Value::Int(3), CmpOp::kGt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{2, 3}));
}

TEST(SelectTest, CandidateListRestricts) {
  BatPtr b = MakeBat<int32_t>({5, 5, 5, 5, 5});
  BatPtr cands = MakeBat<Oid>({Oid{1}, Oid{3}});
  cands->mutable_props().sorted = true;
  auto r = ThetaSelect(b, cands, Value::Int(5), CmpOp::kEq);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{1, 3}));
}

TEST(SelectTest, DenseCandidateListRestricts) {
  BatPtr b = MakeBat<int32_t>({7, 7, 7, 7, 7, 7});
  BatPtr cands = Bat::NewDense(2, 3);  // positions 2,3,4
  auto r = ThetaSelect(b, cands, Value::Int(7), CmpOp::kEq);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{2, 3, 4}));
}

TEST(SelectTest, RangeAntiSelect) {
  BatPtr b = MakeBat<int32_t>({1, 5, 10, 15, 20});
  auto r = RangeSelect(b, nullptr, Value::Int(5), Value::Int(15), true, true,
                       /*anti=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{0, 4}));
}

TEST(SelectTest, EmptyCandidateListYieldsEmptyResult) {
  BatPtr b = MakeBat<int32_t>({1, 2, 3, 4});
  BatPtr cands = Bat::New(PhysType::kOid);  // empty candidate list
  cands->mutable_props().sorted = true;
  cands->mutable_props().key = true;
  auto r = ThetaSelect(b, cands, Value::Int(2), CmpOp::kGe);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Count(), 0u);
  EXPECT_TRUE((*r)->props().sorted);
  EXPECT_TRUE((*r)->props().key);
  auto rr = RangeSelect(b, cands, Value::Int(1), Value::Int(4));
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ((*rr)->Count(), 0u);
}

TEST(SelectTest, AntiRangeWithNilBounds) {
  BatPtr b = MakeBat<int32_t>({1, 5, 10, 15, 20});
  // anti with both bounds nil: nothing is outside (-inf, +inf).
  auto none = RangeSelect(b, nullptr, Value::Nil(), Value::Nil(), true, true,
                          /*anti=*/true);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ((*none)->Count(), 0u);
  // anti with nil hi: complement of x >= 5 is x < 5.
  auto below = RangeSelect(b, nullptr, Value::Int(5), Value::Nil(), true,
                           true, /*anti=*/true);
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(OidsOf(*below), (std::vector<Oid>{0}));
  // anti with nil lo: complement of x <= 15 is x > 15.
  auto above = RangeSelect(b, nullptr, Value::Nil(), Value::Int(15), true,
                           true, /*anti=*/true);
  ASSERT_TRUE(above.ok());
  EXPECT_EQ(OidsOf(*above), (std::vector<Oid>{4}));
}

TEST(SelectTest, SortedTailFastPathReturnsDenseOidBat) {
  BatPtr b = MakeBat<int32_t>({2, 4, 6, 8, 10, 12});
  b->DeriveProps();
  ASSERT_TRUE(b->props().sorted);
  // Theta ops on a sorted tail come from two binary searches; the result
  // carries no payload at all.
  auto ge = ThetaSelect(b, nullptr, Value::Int(6), CmpOp::kGe);
  ASSERT_TRUE(ge.ok());
  EXPECT_TRUE((*ge)->IsDenseTail());
  EXPECT_EQ((*ge)->PayloadBytes(), 0u);
  EXPECT_EQ((*ge)->tseqbase(), Oid{2});
  EXPECT_EQ(OidsOf(*ge), (std::vector<Oid>{2, 3, 4, 5}));
  // A miss inside the domain still returns a (zero-length) dense BAT.
  auto miss = ThetaSelect(b, nullptr, Value::Int(7), CmpOp::kEq);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE((*miss)->IsDenseTail());
  EXPECT_EQ((*miss)->Count(), 0u);
  // Range over a non-zero hseqbase keeps OIDs in head space.
  b->set_hseqbase(100);
  auto range = RangeSelect(b, nullptr, Value::Int(4), Value::Int(9));
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE((*range)->IsDenseTail());
  EXPECT_EQ(OidsOf(*range), (std::vector<Oid>{101, 102, 103}));
}

TEST(SelectTest, RangeOpenBounds) {
  BatPtr b = MakeBat<int32_t>({1, 5, 10});
  auto lo_only = RangeSelect(b, nullptr, Value::Int(5), Value::Nil());
  ASSERT_TRUE(lo_only.ok());
  EXPECT_EQ(OidsOf(*lo_only), (std::vector<Oid>{1, 2}));
  auto hi_only = RangeSelect(b, nullptr, Value::Nil(), Value::Int(5), true,
                             /*hi_incl=*/false);
  ASSERT_TRUE(hi_only.ok());
  EXPECT_EQ(OidsOf(*hi_only), (std::vector<Oid>{0}));
}

TEST(SelectTest, StringEqualityViaInterning) {
  BatPtr names = MakeStringBat({"john", "roger", "bob", "john"});
  auto r = ThetaSelect(names, nullptr, Value::Str("john"), CmpOp::kEq);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{0, 3}));
  auto missing =
      ThetaSelect(names, nullptr, Value::Str("nosuch"), CmpOp::kEq);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ((*missing)->Count(), 0u);
}

TEST(SelectTest, StringOrdering) {
  BatPtr names = MakeStringBat({"ape", "zebra", "mole"});
  auto r = ThetaSelect(names, nullptr, Value::Str("mole"), CmpOp::kLe);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{0, 2}));
}

TEST(SelectTest, TypeMismatchIsError) {
  BatPtr b = MakeBat<int32_t>({1});
  EXPECT_FALSE(ThetaSelect(b, nullptr, Value::Str("x"), CmpOp::kEq).ok());
  BatPtr s = MakeStringBat({"x"});
  EXPECT_FALSE(ThetaSelect(s, nullptr, Value::Int(1), CmpOp::kEq).ok());
}

TEST(SelectTest, NonZeroHseqbaseOffsetsResults) {
  BatPtr b = MakeBat<int32_t>({4, 8, 4});
  b->set_hseqbase(100);
  auto r = ThetaSelect(b, nullptr, Value::Int(4), CmpOp::kEq);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(OidsOf(*r), (std::vector<Oid>{100, 102}));
}

// --------------------------------------------------------------- Project --

TEST(ProjectTest, FetchValuesByOid) {
  BatPtr values = MakeBat<int32_t>({10, 20, 30, 40});
  BatPtr oids = MakeBat<Oid>({Oid{3}, Oid{0}, Oid{3}});
  auto r = Project(oids, values);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->Count(), 3u);
  EXPECT_EQ((*r)->ValueAt<int32_t>(0), 40);
  EXPECT_EQ((*r)->ValueAt<int32_t>(1), 10);
  EXPECT_EQ((*r)->ValueAt<int32_t>(2), 40);
}

TEST(ProjectTest, DenseOverDenseStaysDense) {
  BatPtr values = Bat::NewDense(1000, 100);
  BatPtr oids = Bat::NewDense(10, 5);
  auto r = Project(oids, values);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->IsDenseTail());
  EXPECT_EQ((*r)->OidAt(0), 1010u);
}

/// A dense OID list over a plain tail copies its one row range, headed
/// where the list is, and rejects a range outside the values.
TEST(ProjectTest, DenseOidsCopyOneRange) {
  BatPtr values = MakeBat<int32_t>({10, 20, 30, 40, 50});
  values->set_hseqbase(100);
  auto r = Project(Bat::NewDense(101, 3, 7), values);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->hseqbase(), 7u);
  ASSERT_EQ((*r)->Count(), 3u);
  EXPECT_EQ((*r)->ValueAt<int32_t>(0), 20);
  EXPECT_EQ((*r)->ValueAt<int32_t>(2), 40);
  BatPtr names = MakeStringBat({"a", "b", "c"});
  auto s = Project(Bat::NewDense(1, 2), names);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->heap().get(), names->heap().get());
  EXPECT_EQ((*s)->StringAt(0), "b");
  EXPECT_EQ((*s)->StringAt(1), "c");
  EXPECT_TRUE(Project(Bat::NewDense(105, 0), values).ok());
  EXPECT_EQ(Project(Bat::NewDense(103, 3), values).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(Project(Bat::NewDense(99, 2), values).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ProjectTest, StringsShareHeap) {
  BatPtr names = MakeStringBat({"a", "b", "c"});
  BatPtr oids = MakeBat<Oid>({Oid{2}, Oid{0}});
  auto r = Project(oids, names);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->heap().get(), names->heap().get());
  EXPECT_EQ((*r)->StringAt(0), "c");
  EXPECT_EQ((*r)->StringAt(1), "a");
}

TEST(ProjectTest, OutOfRangeOidRejected) {
  BatPtr values = MakeBat<int32_t>({1, 2});
  BatPtr oids = MakeBat<Oid>({Oid{5}});
  EXPECT_FALSE(Project(oids, values).ok());
}

TEST(ProjectTest, RespectsValueHseqbase) {
  BatPtr values = MakeBat<int32_t>({10, 20, 30});
  values->set_hseqbase(50);
  BatPtr oids = MakeBat<Oid>({Oid{51}});
  auto r = Project(oids, values);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->ValueAt<int32_t>(0), 20);
}

// ------------------------------------------------------------------ Join --

TEST(JoinTest, HashJoinBasic) {
  BatPtr l = MakeBat<int32_t>({1, 2, 3, 2});
  BatPtr r = MakeBat<int32_t>({2, 4, 1});
  auto jr = HashJoin(l, r);
  ASSERT_TRUE(jr.ok());
  // Matches: l0-r2 (1), l1-r0 (2), l3-r0 (2).
  ASSERT_EQ(jr->Count(), 3u);
  std::vector<std::pair<Oid, Oid>> pairs;
  for (size_t i = 0; i < jr->Count(); ++i) {
    pairs.emplace_back(jr->left->OidAt(i), jr->right->OidAt(i));
  }
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, (std::vector<std::pair<Oid, Oid>>{{0, 2}, {1, 0}, {3, 0}}));
}

TEST(JoinTest, MergeJoinMatchesHashJoinOnSortedData) {
  BatPtr l = MakeBat<int32_t>({1, 2, 2, 5, 9});
  BatPtr r = MakeBat<int32_t>({2, 2, 5, 7});
  l->DeriveProps();
  r->DeriveProps();
  auto mj = MergeJoin(l, r);
  ASSERT_TRUE(mj.ok());
  auto hj = HashJoin(l, r);
  ASSERT_TRUE(hj.ok());
  ASSERT_EQ(mj->Count(), hj->Count());
  EXPECT_EQ(mj->Count(), 5u);  // 2x2 cross product + one 5-match
}

TEST(JoinTest, StringJoinAcrossDifferentHeaps) {
  BatPtr l = MakeStringBat({"ape", "bee", "cat"});
  BatPtr r = MakeStringBat({"cat", "dog", "ape"});
  auto jr = HashJoin(l, r);
  ASSERT_TRUE(jr.ok());
  ASSERT_EQ(jr->Count(), 2u);
}

TEST(JoinTest, EmptyInputsYieldEmptyResult) {
  BatPtr l = Bat::New(PhysType::kInt32);
  BatPtr r = MakeBat<int32_t>({1, 2});
  auto jr = HashJoin(l, r);
  ASSERT_TRUE(jr.ok());
  EXPECT_EQ(jr->Count(), 0u);
}

TEST(JoinTest, TypeMismatchRejected) {
  BatPtr l = MakeBat<int32_t>({1});
  BatPtr r = MakeBat<int64_t>({1});
  EXPECT_FALSE(HashJoin(l, r).ok());
}

TEST(JoinTest, RandomizedHashVsMergeAgreeOnPairCount) {
  Rng rng(7);
  BatPtr l = Bat::New(PhysType::kInt32);
  BatPtr r = Bat::New(PhysType::kInt32);
  for (int i = 0; i < 2000; ++i) {
    l->Append<int32_t>(static_cast<int32_t>(rng.Uniform(100)));
  }
  for (int i = 0; i < 1500; ++i) {
    r->Append<int32_t>(static_cast<int32_t>(rng.Uniform(100)));
  }
  auto hj = HashJoin(l, r);
  ASSERT_TRUE(hj.ok());
  auto ls = Sort(l);
  auto rs = Sort(r);
  ASSERT_TRUE(ls.ok() && rs.ok());
  auto mj = MergeJoin(ls->sorted, rs->sorted);
  ASSERT_TRUE(mj.ok());
  EXPECT_EQ(hj->Count(), mj->Count());
}

// --------------------------------------------- Join routes vs an oracle --
//
// Join() fetches positionally when the build side (r) is exactly lo, lo+1,
// ..., lo+n-1, and hashes (or merges) otherwise. These tests check every
// route against a nested-loop oracle, and against HashJoin (the kernel the
// positional route replaces) pair for pair. The positional route marks its
// left OIDs sorted and HashJoin does not, so with an unsorted probe side
// `left->props().sorted` tells which route ran.

using OidPairs = std::vector<std::pair<Oid, Oid>>;

template <typename T>
BatPtr BatOf(const std::vector<T>& values, Oid hseqbase = 0) {
  BatPtr b = Bat::New(TypeTraits<T>::kType);
  for (T v : values) b->Append<T>(v);
  b->set_hseqbase(hseqbase);
  return b;
}

OidPairs PairsOf(const JoinResult& jr) {
  OidPairs out;
  for (size_t i = 0; i < jr.Count(); ++i) {
    out.emplace_back(jr.left->OidAt(i), jr.right->OidAt(i));
  }
  return out;
}

/// Every (l row, r row) pair with equal values, left-major.
template <typename T>
OidPairs NestedLoopJoin(const std::vector<T>& l, Oid lbase,
                        const std::vector<T>& r, Oid rbase) {
  OidPairs out;
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (l[i] == r[j]) out.emplace_back(lbase + i, rbase + j);
    }
  }
  return out;
}

template <typename T>
void ExpectJoinMatchesOracle(const std::vector<T>& l, const std::vector<T>& r,
                             bool positional) {
  constexpr Oid kLbase = 1000;
  constexpr Oid kRbase = 7;
  const BatPtr lb = BatOf(l, kLbase);
  const BatPtr rb = BatOf(r, kRbase);
  auto jr = Join(lb, rb);
  ASSERT_TRUE(jr.ok()) << jr.status().ToString();
  EXPECT_EQ(PairsOf(*jr), NestedLoopJoin(l, kLbase, r, kRbase));
  EXPECT_EQ(jr->left->props().sorted, positional);
  auto hj = HashJoin(lb, rb);
  ASSERT_TRUE(hj.ok());
  EXPECT_EQ(PairsOf(*jr), PairsOf(*hj));
}

template <typename T>
std::vector<T> Iota(T lo, size_t n) {
  std::vector<T> out;
  for (size_t i = 0; i < n; ++i) out.push_back(static_cast<T>(lo + i));
  return out;
}

/// `n` probe values drawn from [lo, hi], so some fall below and above the
/// build range and many repeat.
template <typename T>
std::vector<T> Draw(Rng* rng, size_t n, int64_t lo, int64_t hi) {
  std::vector<T> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<T>(rng->UniformRange(lo, hi)));
  }
  return out;
}

TEST(JoinRouteTest, DenseKeyFromZeroFetchesPositionally) {
  Rng rng(11);
  ExpectJoinMatchesOracle(Draw<int32_t>(&rng, 3000, -40, 300),
                          Iota<int32_t>(0, 256), true);
}

TEST(JoinRouteTest, NegativeDenseKey) {
  Rng rng(12);
  ExpectJoinMatchesOracle(Draw<int32_t>(&rng, 3000, -1100, -600),
                          Iota<int32_t>(-1000, 256), true);
}

TEST(JoinRouteTest, NarrowTails) {
  Rng rng(13);
  // The whole int8 domain, and a part of it.
  ExpectJoinMatchesOracle(Draw<int8_t>(&rng, 2000, -128, 127),
                          Iota<int8_t>(-128, 256), true);
  ExpectJoinMatchesOracle(Draw<int8_t>(&rng, 2000, -128, 127),
                          Iota<int8_t>(-10, 31), true);
  ExpectJoinMatchesOracle(Draw<int16_t>(&rng, 3000, 29000, 32767),
                          Iota<int16_t>(30000, 2768), true);
  ExpectJoinMatchesOracle(Draw<int16_t>(&rng, 3000, -32768, -32000),
                          Iota<int16_t>(-32768, 300), true);
}

TEST(JoinRouteTest, Int64KeysAtTheLimits) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> probe = {kMin,     kMax,     kMax - 9, kMax - 10,
                                      kMin + 9, kMin + 10, 0,       -1,
                                      kMax - 1, kMin + 1, kMin,     kMax};
  ExpectJoinMatchesOracle(probe, Iota<int64_t>(kMax - 9, 10), true);
  ExpectJoinMatchesOracle(probe, Iota<int64_t>(kMin, 10), true);
  // A build side that steps from INT64_MAX to INT64_MIN is contiguous
  // modulo 2^64: the fetch still finds exactly the equal rows.
  ExpectJoinMatchesOracle(probe, std::vector<int64_t>{kMax - 1, kMax, kMin},
                          true);
}

TEST(JoinRouteTest, OidTails) {
  Rng rng(14);
  std::vector<Oid> probe;
  for (int i = 0; i < 2000; ++i) probe.push_back(900 + rng.Uniform(1300));
  ExpectJoinMatchesOracle(probe, Iota<Oid>(1000, 1000), true);
  const Oid kTop = std::numeric_limits<Oid>::max();
  ExpectJoinMatchesOracle(std::vector<Oid>{kTop, 0, 1, 2, kTop - 1, 5},
                          std::vector<Oid>{kTop - 1, kTop, 0, 1}, true);
}

TEST(JoinRouteTest, EmptySides) {
  ExpectJoinMatchesOracle(std::vector<int32_t>{}, Iota<int32_t>(0, 16), true);
  // An empty build side is trivially dense.
  ExpectJoinMatchesOracle(std::vector<int32_t>{3, 1, 2},
                          std::vector<int32_t>{}, true);
  ExpectJoinMatchesOracle(std::vector<int32_t>{}, std::vector<int32_t>{},
                          true);
}

TEST(JoinRouteTest, BuildSideWithOneGapHashes) {
  Rng rng(15);
  std::vector<int32_t> r = Iota<int32_t>(0, 256);
  r.erase(r.begin() + 100);
  ExpectJoinMatchesOracle(Draw<int32_t>(&rng, 3000, -10, 270), r, false);
  // A gap in the last slot still breaks the run.
  std::vector<int32_t> tail_gap = Iota<int32_t>(0, 256);
  tail_gap.back() = 300;
  ExpectJoinMatchesOracle(Draw<int32_t>(&rng, 3000, -10, 310), tail_gap,
                          false);
}

TEST(JoinRouteTest, ShuffledDenseBuildSideHashes) {
  Rng rng(16);
  std::vector<int32_t> r = Iota<int32_t>(-50, 256);
  for (size_t i = r.size() - 1; i > 0; --i) {
    std::swap(r[i], r[rng.Uniform(i + 1)]);
  }
  ExpectJoinMatchesOracle(Draw<int32_t>(&rng, 3000, -60, 220), r, false);
}

TEST(JoinRouteTest, FloatBuildSideHashes) {
  ExpectJoinMatchesOracle(std::vector<double>{1.0, 2.0, 5.0, 2.0},
                          std::vector<double>{1.0, 2.0, 3.0}, false);
}

TEST(JoinRouteTest, DenseOidTails) {
  // Dense against dense (the case MergeJoin used to take), and a dense
  // probe into a materialized dense key.
  const BatPtr l = Bat::NewDense(90, 40, 5);
  const BatPtr r = Bat::NewDense(100, 50, 300);
  OidPairs expected;
  for (Oid i = 0; i < 40; ++i) {
    if (90 + i >= 100) expected.emplace_back(5 + i, 300 + (90 + i - 100));
  }
  auto dd = Join(l, r);
  ASSERT_TRUE(dd.ok());
  EXPECT_EQ(PairsOf(*dd), expected);
  EXPECT_TRUE(dd->left->props().sorted);
  const BatPtr rm = BatOf(Iota<Oid>(100, 50), 300);
  auto dm = Join(l, rm);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(PairsOf(*dm), expected);
  auto hj = HashJoin(l, r);
  ASSERT_TRUE(hj.ok());
  EXPECT_EQ(PairsOf(*hj), expected);
}

// ----------------------------------------------------------------- Group --

TEST(GroupTest, SingleColumnGrouping) {
  BatPtr b = MakeBat<int32_t>({7, 3, 7, 3, 9});
  auto g = Group(b);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ngroups, 3u);
  ASSERT_EQ(g->groups->Count(), 5u);
  EXPECT_EQ(g->groups->OidAt(0), g->groups->OidAt(2));
  EXPECT_EQ(g->groups->OidAt(1), g->groups->OidAt(3));
  EXPECT_NE(g->groups->OidAt(0), g->groups->OidAt(4));
  // extents point at first member rows 0,1,4
  EXPECT_EQ(OidsOf(g->extents), (std::vector<Oid>{0, 1, 4}));
}

TEST(GroupTest, SubgroupRefinement) {
  // Two columns: (a, b) pairs (1,x),(1,y),(2,x),(1,x)
  BatPtr a = MakeBat<int32_t>({1, 1, 2, 1});
  BatPtr b = MakeStringBat({"x", "y", "x", "x"});
  auto ga = Group(a);
  ASSERT_TRUE(ga.ok());
  EXPECT_EQ(ga->ngroups, 2u);
  auto gab = Group(b, ga->groups, ga->ngroups);
  ASSERT_TRUE(gab.ok());
  EXPECT_EQ(gab->ngroups, 3u);  // (1,x),(1,y),(2,x)
  EXPECT_EQ(gab->groups->OidAt(0), gab->groups->OidAt(3));
}

TEST(GroupTest, AggregatesPerGroup) {
  BatPtr key = MakeBat<int32_t>({1, 2, 1, 2, 1});
  BatPtr val = MakeBat<int32_t>({10, 20, 30, 40, 50});
  auto g = Group(key);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->ngroups, 2u);
  auto sum = AggrSum(val, g->groups, g->ngroups);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ((*sum)->ValueAt<int64_t>(0), 90);  // 10+30+50
  EXPECT_EQ((*sum)->ValueAt<int64_t>(1), 60);  // 20+40
  auto cnt = AggrCount(g->groups, g->ngroups, 5);
  ASSERT_TRUE(cnt.ok());
  EXPECT_EQ((*cnt)->ValueAt<int64_t>(0), 3);
  EXPECT_EQ((*cnt)->ValueAt<int64_t>(1), 2);
  auto mn = AggrMin(val, g->groups, g->ngroups);
  auto mx = AggrMax(val, g->groups, g->ngroups);
  ASSERT_TRUE(mn.ok() && mx.ok());
  EXPECT_EQ((*mn)->ValueAt<int32_t>(0), 10);
  EXPECT_EQ((*mx)->ValueAt<int32_t>(0), 50);
  auto avg = AggrAvg(val, g->groups, g->ngroups);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ((*avg)->ValueAt<double>(0), 30.0);
}

TEST(GroupTest, GlobalAggregates) {
  BatPtr val = MakeBat<double>({1.5, 2.5, 3.0});
  auto sum = AggrSum(val, nullptr, 1);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ((*sum)->ValueAt<double>(0), 7.0);
  auto cnt = AggrCount(nullptr, 1, 3);
  ASSERT_TRUE(cnt.ok());
  EXPECT_EQ((*cnt)->ValueAt<int64_t>(0), 3);
}

TEST(GroupTest, ManyGroupsForceTableGrowth) {
  // Regression: the group hash table must rehash past its initial 128
  // slots (found by optimizer_fuzz_test hanging on >128 distinct values).
  BatPtr b = Bat::New(PhysType::kInt32);
  for (int32_t i = 0; i < 5000; ++i) b->Append<int32_t>(i % 1733);
  auto g = Group(b);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ngroups, 1733u);
  auto cnt = AggrCount(g->groups, g->ngroups, 5000);
  ASSERT_TRUE(cnt.ok());
  int64_t total = 0;
  for (size_t i = 0; i < g->ngroups; ++i) {
    total += (*cnt)->ValueAt<int64_t>(i);
  }
  EXPECT_EQ(total, 5000);
}

TEST(GroupTest, DistinctPreservesFirstAppearance) {
  BatPtr b = MakeBat<int32_t>({5, 1, 5, 2, 1});
  auto d = Distinct(b);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ((*d)->Count(), 3u);
  EXPECT_EQ((*d)->ValueAt<int32_t>(0), 5);
  EXPECT_EQ((*d)->ValueAt<int32_t>(1), 1);
  EXPECT_EQ((*d)->ValueAt<int32_t>(2), 2);
}

// -------------------------------------------- Group routes vs an oracle --
//
// Integer keys whose (prev group, key) domain has at most 64Ki pairs take
// the direct-indexed route, the rest hash. Every shape is checked against
// a first-appearance oracle: group ids, extents and ngroups exactly.

struct Grouping {
  std::vector<Oid> groups;
  std::vector<Oid> extents;
  size_t ngroups = 0;
};

/// Numbers (prev group, value) pairs by first appearance in row order.
template <typename T>
Grouping FirstAppearance(const std::vector<T>& v, const std::vector<Oid>& prev,
                         Oid hseq) {
  Grouping out;
  std::map<std::pair<Oid, T>, Oid> ids;
  for (size_t i = 0; i < v.size(); ++i) {
    const std::pair<Oid, T> key(prev.empty() ? Oid{0} : prev[i], v[i]);
    auto [it, fresh] = ids.emplace(key, ids.size());
    if (fresh) out.extents.push_back(hseq + i);
    out.groups.push_back(it->second);
  }
  out.ngroups = ids.size();
  return out;
}

/// Groups `v` (refining `prev` when it is not empty) and checks the result
/// against the oracle.
template <typename T>
void ExpectGroupMatchesOracle(const std::vector<T>& v,
                              const std::vector<Oid>& prev = {},
                              size_t prev_ngroups = 0) {
  constexpr Oid kHseq = 40;
  const BatPtr b = BatOf(v, kHseq);
  const BatPtr p = prev.empty() ? nullptr : BatOf(prev, kHseq);
  auto g = Group(b, p, prev_ngroups, parallel::ExecContext::Serial());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Grouping want = FirstAppearance(v, prev, kHseq);
  EXPECT_EQ(g->ngroups, want.ngroups);
  EXPECT_EQ(OidsOf(g->groups), want.groups);
  EXPECT_EQ(OidsOf(g->extents), want.extents);
}

TEST(GroupRouteTest, SmallDomains) {
  Rng rng(21);
  ExpectGroupMatchesOracle(Draw<int32_t>(&rng, 5000, 0, 7));
  ExpectGroupMatchesOracle(Draw<int32_t>(&rng, 5000, 100, 355));
  ExpectGroupMatchesOracle(Draw<int32_t>(&rng, 5000, -300, -10));
  ExpectGroupMatchesOracle(std::vector<int32_t>{42});
  ExpectGroupMatchesOracle(std::vector<int32_t>{});
}

TEST(GroupRouteTest, NarrowAndWideTails) {
  Rng rng(22);
  ExpectGroupMatchesOracle(Draw<int8_t>(&rng, 5000, -128, 127));
  ExpectGroupMatchesOracle(Draw<int16_t>(&rng, 5000, -32768, 32767));
  ExpectGroupMatchesOracle(
      std::vector<int16_t>{-32768, 32767, 0, 32767, -32768, 5});
  std::vector<Oid> oids;
  for (int i = 0; i < 5000; ++i) oids.push_back(1000000 + rng.Uniform(500));
  ExpectGroupMatchesOracle(oids);
  ExpectGroupMatchesOracle(std::vector<bool>{true, false, true, true});
  ExpectGroupMatchesOracle(Draw<int64_t>(&rng, 5000, -3, 3));
}

TEST(GroupRouteTest, Int64KeysAtTheLimits) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Spans of a few values at either end, and one across the whole domain.
  ExpectGroupMatchesOracle(
      std::vector<int64_t>{kMax, kMax - 3, kMax, kMax - 1, kMax - 3});
  ExpectGroupMatchesOracle(
      std::vector<int64_t>{kMin + 2, kMin, kMin + 2, kMin + 1, kMin});
  ExpectGroupMatchesOracle(std::vector<int64_t>{kMin, kMax, 0, kMax, kMin});
  const Oid kTop = std::numeric_limits<Oid>::max();
  ExpectGroupMatchesOracle(std::vector<Oid>{kTop, kTop - 2, kTop, 0, kTop});
}

TEST(GroupRouteTest, SpansAtTheDirectBound) {
  Rng rng(23);
  for (int64_t span : {65535, 65536, 65537, 200000}) {
    SCOPED_TRACE(span);
    std::vector<int32_t> v = Draw<int32_t>(&rng, 5000, -7, -7 + span - 1);
    // Pin both ends of the span.
    v[17] = -7;
    v[4000] = static_cast<int32_t>(-7 + span - 1);
    ExpectGroupMatchesOracle(v);
  }
}

TEST(GroupRouteTest, RefinementAtTheDirectBound) {
  Rng rng(24);
  // prev groups × key span = 256 × 256 (direct), 256 × 257 (hash),
  // 2 × 32768 (direct) and 2 × 32769 (hash).
  struct Shape {
    int64_t prev_values;
    int64_t span;
  };
  for (const Shape shape : {Shape{256, 256}, Shape{256, 257},
                            Shape{2, 32768}, Shape{2, 32769}}) {
    SCOPED_TRACE(shape.prev_values * shape.span);
    std::vector<int32_t> a = Draw<int32_t>(&rng, 8000, 0,
                                           shape.prev_values - 1);
    std::vector<int32_t> b = Draw<int32_t>(&rng, 8000, 50,
                                           50 + shape.span - 1);
    for (int64_t i = 0; i < shape.prev_values; ++i) {
      a[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
    b[1] = 50;
    b[2] = static_cast<int32_t>(50 + shape.span - 1);
    const Grouping ga = FirstAppearance(a, {}, 0);
    ASSERT_EQ(ga.ngroups, static_cast<size_t>(shape.prev_values));
    ExpectGroupMatchesOracle(b, ga.groups, ga.ngroups);
  }
}

TEST(GroupRouteTest, FloatAndStringKeysHash) {
  ExpectGroupMatchesOracle(std::vector<double>{1.5, -0.5, 1.5, 2.0, -0.5});
  BatPtr s = MakeStringBat({"b", "a", "b", "c", "a"});
  auto g = Group(s);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(OidsOf(g->groups), (std::vector<Oid>{0, 1, 0, 2, 1}));
  EXPECT_EQ(OidsOf(g->extents), (std::vector<Oid>{0, 1, 3}));
}

// ------------------------------------------------------------------ Sort --

TEST(SortTest, SortsAndProducesOrderIndex) {
  BatPtr b = MakeBat<int32_t>({30, 10, 20});
  auto s = Sort(b);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->sorted->ValueAt<int32_t>(0), 10);
  EXPECT_EQ(s->sorted->ValueAt<int32_t>(1), 20);
  EXPECT_EQ(s->sorted->ValueAt<int32_t>(2), 30);
  EXPECT_EQ(OidsOf(s->order), (std::vector<Oid>{1, 2, 0}));
  EXPECT_TRUE(s->sorted->props().sorted);
}

TEST(SortTest, RadixPathMatchesComparisonPath) {
  Rng rng(13);
  BatPtr a = Bat::New(PhysType::kInt32);
  for (int i = 0; i < 5000; ++i) {
    a->Append<int32_t>(static_cast<int32_t>(rng.Next()));  // incl. negatives
  }
  auto s = Sort(a);  // radix path (int32 ascending)
  ASSERT_TRUE(s.ok());
  const int32_t* v = s->sorted->TailData<int32_t>();
  for (size_t i = 1; i < s->sorted->Count(); ++i) {
    ASSERT_LE(v[i - 1], v[i]) << "at " << i;
  }
}

TEST(SortTest, DescendingSort) {
  BatPtr b = MakeBat<int32_t>({1, 3, 2});
  auto s = Sort(b, /*descending=*/true);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->sorted->ValueAt<int32_t>(0), 3);
  EXPECT_EQ(s->sorted->ValueAt<int32_t>(2), 1);
  EXPECT_TRUE(s->sorted->props().revsorted);
}

TEST(SortTest, StringSortLexicographic) {
  BatPtr b = MakeStringBat({"mole", "ape", "zebra"});
  auto s = Sort(b);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->sorted->StringAt(0), "ape");
  EXPECT_EQ(s->sorted->StringAt(2), "zebra");
}

TEST(SortTest, TopN) {
  BatPtr b = MakeBat<int32_t>({50, 10, 40, 20, 30});
  auto top2 = TopN(b, 2);
  ASSERT_TRUE(top2.ok());
  EXPECT_EQ(OidsOf(*top2), (std::vector<Oid>{1, 3}));  // values 10, 20
  auto bottom2 = TopN(b, 2, /*descending=*/true);
  ASSERT_TRUE(bottom2.ok());
  EXPECT_EQ(OidsOf(*bottom2), (std::vector<Oid>{0, 2}));  // values 50, 40
}

TEST(SortTest, StableForEqualKeys) {
  BatPtr b = MakeBat<int64_t>({2, 1, 2, 1});
  auto s = Sort(b);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(OidsOf(s->order), (std::vector<Oid>{1, 3, 0, 2}));
}

// ------------------------------------------------------------------ Calc --

TEST(CalcTest, BinaryArithmetic) {
  BatPtr a = MakeBat<int32_t>({1, 2, 3});
  BatPtr b = MakeBat<int32_t>({10, 20, 30});
  auto add = CalcBinary(ArithOp::kAdd, a, b);
  ASSERT_TRUE(add.ok());
  EXPECT_EQ((*add)->type(), PhysType::kInt32);
  EXPECT_EQ((*add)->ValueAt<int32_t>(2), 33);
  auto mul = CalcBinary(ArithOp::kMul, a, b);
  ASSERT_TRUE(mul.ok());
  EXPECT_EQ((*mul)->ValueAt<int32_t>(1), 40);
}

TEST(CalcTest, PromotionToDouble) {
  BatPtr a = MakeBat<int32_t>({1, 2});
  BatPtr b = MakeBat<double>({0.5, 0.25});
  auto r = CalcBinary(ArithOp::kMul, a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), PhysType::kDouble);
  EXPECT_DOUBLE_EQ((*r)->ValueAt<double>(0), 0.5);
}

TEST(CalcTest, PromotionToInt64) {
  BatPtr a = MakeBat<int32_t>({1 << 30});
  BatPtr b = MakeBat<int64_t>({int64_t{1} << 40});
  auto r = CalcBinary(ArithOp::kAdd, a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), PhysType::kInt64);
  EXPECT_EQ((*r)->ValueAt<int64_t>(0), (int64_t{1} << 40) + (1 << 30));
}

TEST(CalcTest, IntegerDivisionByZeroIsError) {
  BatPtr a = MakeBat<int32_t>({1});
  BatPtr b = MakeBat<int32_t>({0});
  EXPECT_FALSE(CalcBinary(ArithOp::kDiv, a, b).ok());
}

TEST(CalcTest, ScalarOps) {
  BatPtr a = MakeBat<int32_t>({10, 20});
  auto r = CalcScalar(ArithOp::kSub, a, Value::Int(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->ValueAt<int32_t>(0), 5);
  auto d = CalcScalar(ArithOp::kMul, a, Value::Real(0.5));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->type(), PhysType::kDouble);
  EXPECT_DOUBLE_EQ((*d)->ValueAt<double>(1), 10.0);
}

TEST(CalcTest, CompareProducesBitmask) {
  BatPtr a = MakeBat<int32_t>({1, 5, 3});
  BatPtr b = MakeBat<int32_t>({2, 2, 3});
  auto r = CalcCompare(CmpOp::kLt, a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->ValueAt<int8_t>(0), 1);
  EXPECT_EQ((*r)->ValueAt<int8_t>(1), 0);
  EXPECT_EQ((*r)->ValueAt<int8_t>(2), 0);
}

TEST(CalcTest, MisalignedInputsRejected) {
  BatPtr a = MakeBat<int32_t>({1, 2});
  BatPtr b = MakeBat<int32_t>({1});
  EXPECT_FALSE(CalcBinary(ArithOp::kAdd, a, b).ok());
}

}  // namespace
}  // namespace mammoth::algebra
