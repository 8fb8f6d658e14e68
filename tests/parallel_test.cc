#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/group.h"
#include "core/join.h"
#include "core/project.h"
#include "core/select.h"
#include "join/partitioned_hash_join.h"
#include "join/radix_cluster.h"
#include "parallel/exec_context.h"
#include "parallel/stitch.h"
#include "parallel/task_pool.h"

namespace mammoth {
namespace {

using algebra::AggrCount;
using algebra::AggrMax;
using algebra::AggrMin;
using algebra::AggrSum;
using algebra::Group;
using algebra::GroupResult;
using algebra::Project;
using algebra::RangeSelect;
using algebra::ThetaSelect;
using parallel::ExecContext;
using parallel::ParseThreadCount;
using parallel::TaskPool;

// ------------------------------------------------------------ TaskPool --

TEST(TaskPoolTest, CoversEveryIndexExactlyOnce) {
  TaskPool pool(4);
  const size_t n = 100000;
  std::vector<int> hits(n, 0);  // morsels are disjoint: plain ints are safe
  std::atomic<uint64_t> sum{0};
  Status s = pool.ParallelFor(n, 1024, [&](size_t b, size_t e, int) {
    uint64_t local = 0;
    for (size_t i = b; i < e; ++i) {
      ++hits[i];
      local += i;
    }
    sum += local;
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
  EXPECT_EQ(sum.load(), uint64_t{n} * (n - 1) / 2);
}

TEST(TaskPoolTest, PropagatesFirstError) {
  TaskPool pool(4);
  Status s = pool.ParallelFor(10000, 100, [&](size_t b, size_t e, int) {
    if (b <= 7777 && 7777 < e) {
      return Status::Internal("morsel failed");
    }
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "morsel failed");
}

TEST(TaskPoolTest, ErrorCancelsRemainingMorsels) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  Status s = pool.ParallelFor(1u << 20, 1, [&](size_t b, size_t, int) {
    ran.fetch_add(1);
    if (b == 0) return Status::Internal("stop");
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  // Cancellation is best-effort, but with 2^20 single-index morsels an
  // early error must leave almost all of them unclaimed.
  EXPECT_LT(ran.load(), 1 << 19);
}

TEST(TaskPoolTest, SingleThreadPoolRunsInline) {
  TaskPool pool(1);
  std::vector<int> workers;
  Status s = pool.ParallelFor(1000, 100, [&](size_t, size_t, int w) {
    workers.push_back(w);  // inline: no concurrency, push_back is safe
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(workers.size(), 10u);
  for (int w : workers) EXPECT_EQ(w, 0);
}

TEST(TaskPoolTest, SingleMorselRunsInline) {
  TaskPool pool(8);
  int calls = 0;
  Status s = pool.ParallelFor(50, 100, [&](size_t b, size_t e, int w) {
    ++calls;  // inline path: safe
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 50u);
    EXPECT_EQ(w, 0);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(calls, 1);
}

TEST(TaskPoolTest, OversubscribedPoolStillCorrect) {
  TaskPool pool(16);  // far more workers than cores
  std::atomic<uint64_t> sum{0};
  Status s = pool.ParallelFor(500000, 777, [&](size_t b, size_t e, int) {
    uint64_t local = 0;
    for (size_t i = b; i < e; ++i) local += i;
    sum += local;
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(sum.load(), uint64_t{500000} * 499999 / 2);
}

TEST(TaskPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  TaskPool pool(4);
  std::atomic<uint64_t> inner_total{0};
  Status s = pool.ParallelFor(8192, 1024, [&](size_t, size_t, int) {
    // A kernel invoked from inside a morsel must not re-enter the pool.
    return pool.ParallelFor(100, 10, [&](size_t b, size_t e, int w) {
      EXPECT_EQ(w, 0);  // inline execution
      inner_total += e - b;
      return Status::OK();
    });
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(inner_total.load(), uint64_t{8} * 100);
}

TEST(TaskPoolTest, ReusableAcrossManyParallelFors) {
  TaskPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> count{0};
    Status s = pool.ParallelFor(10000, 64, [&](size_t b, size_t e, int) {
      count += e - b;
      return Status::OK();
    });
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(count.load(), 10000u);
  }
}

// --------------------------------------------------------- ExecContext --

TEST(ExecContextTest, SerialHasOneThread) {
  EXPECT_EQ(ExecContext::Serial().threads(), 1);
}

TEST(ExecContextTest, ParseThreadCount) {
  EXPECT_EQ(ParseThreadCount(nullptr, 3), 3);
  EXPECT_EQ(ParseThreadCount("", 3), 3);
  EXPECT_EQ(ParseThreadCount("8", 3), 8);
  EXPECT_EQ(ParseThreadCount("1", 3), 1);
  EXPECT_EQ(ParseThreadCount("0", 3), 3);    // non-positive -> fallback
  EXPECT_EQ(ParseThreadCount("-4", 3), 3);
  EXPECT_EQ(ParseThreadCount("abc", 3), 3);
  EXPECT_EQ(ParseThreadCount("4x", 3), 3);
  EXPECT_EQ(ParseThreadCount("999999", 3), 3);  // absurd -> fallback
}

TEST(ExecContextTest, NoPoolParallelForRunsInline) {
  ExecContext ctx;
  size_t covered = 0;
  Status s = ctx.ParallelFor(1000, 128, [&](size_t b, size_t e, int w) {
    EXPECT_EQ(w, 0);
    covered += e - b;
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(covered, 1000u);
}

// ----------------------------------------------------- MorselCollector --

TEST(MorselCollectorTest, StitchesRunsInMorselOrder) {
  TaskPool pool(4);
  const size_t n = 100000, grain = 1000;
  parallel::MorselCollector<uint64_t> collect(pool.threads(), n, grain);
  Status s = pool.ParallelFor(n, grain, [&](size_t b, size_t e, int w) {
    auto sink = collect.BeginMorsel(b, w);
    for (size_t i = b; i < e; ++i) {
      if (i % 3 == 0) sink.Append(i);
    }
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  std::vector<uint64_t> out(collect.Total());
  collect.Stitch(out.data());
  std::vector<uint64_t> expect;
  for (size_t i = 0; i < n; i += 3) expect.push_back(i);
  EXPECT_EQ(out, expect);
}

// ------------------------------------------------- Kernel cross-checks --
//
// Every parallel kernel must produce a byte-identical BAT — values,
// hseqbase, density, properties — to its serial schedule. Inputs are sized
// past the parallel thresholds (> 128K rows) so the pool path actually
// runs.

void ExpectBatsIdentical(const BatPtr& serial, const BatPtr& par) {
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(par, nullptr);
  ASSERT_EQ(serial->type(), par->type());
  ASSERT_EQ(serial->Count(), par->Count());
  EXPECT_EQ(serial->hseqbase(), par->hseqbase());
  ASSERT_EQ(serial->IsDenseTail(), par->IsDenseTail());
  EXPECT_EQ(serial->props().sorted, par->props().sorted);
  EXPECT_EQ(serial->props().revsorted, par->props().revsorted);
  EXPECT_EQ(serial->props().key, par->props().key);
  if (serial->IsDenseTail()) {
    EXPECT_EQ(serial->tseqbase(), par->tseqbase());
    return;
  }
  if (serial->Count() == 0) return;
  EXPECT_EQ(std::memcmp(serial->tail().raw_data(), par->tail().raw_data(),
                        serial->Count() * serial->tail().width()),
            0);
}

BatPtr RandomInt32(size_t n, uint64_t bound, uint64_t seed) {
  Rng rng(seed);
  BatPtr b = Bat::New(PhysType::kInt32);
  b->Resize(n);
  int32_t* v = b->MutableTailData<int32_t>();
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<int32_t>(rng.Uniform(bound));
  }
  return b;
}

constexpr size_t kRows = 300000;  // past the 2*64K parallel threshold

class ParallelKernelTest : public ::testing::Test {
 protected:
  TaskPool pool_{4};
  ExecContext par_{&pool_};
  const ExecContext& ser_ = ExecContext::Serial();
};

TEST_F(ParallelKernelTest, ThetaSelectMatchesSerial) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    BatPtr b = RandomInt32(kRows, 1000, seed);
    for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq, CmpOp::kNe,
                     CmpOp::kGe, CmpOp::kGt}) {
      auto s = ThetaSelect(b, nullptr, Value::Int(500), op, ser_);
      auto p = ThetaSelect(b, nullptr, Value::Int(500), op, par_);
      ASSERT_TRUE(s.ok() && p.ok());
      ExpectBatsIdentical(*s, *p);
    }
  }
}

TEST_F(ParallelKernelTest, ThetaSelectWithCandidatesMatchesSerial) {
  BatPtr b = RandomInt32(kRows, 100, 7);
  BatPtr cands = Bat::New(PhysType::kOid);
  cands->Reserve(kRows / 2);
  for (size_t i = 0; i < kRows; i += 2) cands->Append<Oid>(i);
  cands->mutable_props().sorted = true;
  cands->mutable_props().key = true;
  auto s = ThetaSelect(b, cands, Value::Int(42), CmpOp::kEq, ser_);
  auto p = ThetaSelect(b, cands, Value::Int(42), CmpOp::kEq, par_);
  ASSERT_TRUE(s.ok() && p.ok());
  ExpectBatsIdentical(*s, *p);

  // Dense candidate list over a sub-range.
  BatPtr dense = Bat::NewDense(1000, kRows - 2000);
  auto sd = ThetaSelect(b, dense, Value::Int(42), CmpOp::kEq, ser_);
  auto pd = ThetaSelect(b, dense, Value::Int(42), CmpOp::kEq, par_);
  ASSERT_TRUE(sd.ok() && pd.ok());
  ExpectBatsIdentical(*sd, *pd);
}

TEST_F(ParallelKernelTest, RangeSelectMatchesSerialIncludingAnti) {
  for (uint64_t seed : {11u, 12u}) {
    BatPtr b = RandomInt32(kRows, 10000, seed);
    struct Case {
      Value lo, hi;
      bool anti;
    };
    const Case cases[] = {
        {Value::Int(100), Value::Int(5000), false},
        {Value::Int(100), Value::Int(5000), true},
        {Value::Nil(), Value::Int(5000), false},
        {Value::Int(100), Value::Nil(), true},
        {Value::Nil(), Value::Nil(), false},
        {Value::Nil(), Value::Nil(), true},
    };
    for (const Case& c : cases) {
      auto s = RangeSelect(b, nullptr, c.lo, c.hi, true, false, c.anti, ser_);
      auto p = RangeSelect(b, nullptr, c.lo, c.hi, true, false, c.anti, par_);
      ASSERT_TRUE(s.ok() && p.ok());
      ExpectBatsIdentical(*s, *p);
    }
  }
}

TEST_F(ParallelKernelTest, ProjectMatchesSerial) {
  Rng rng(99);
  BatPtr values = Bat::New(PhysType::kInt64);
  values->Resize(kRows);
  int64_t* v = values->MutableTailData<int64_t>();
  for (size_t i = 0; i < kRows; ++i) v[i] = static_cast<int64_t>(rng.Next());
  BatPtr oids = Bat::New(PhysType::kOid);
  oids->Resize(kRows);
  Oid* o = oids->MutableTailData<Oid>();
  for (size_t i = 0; i < kRows; ++i) o[i] = rng.Uniform(kRows);

  auto s = Project(oids, values, ser_);
  auto p = Project(oids, values, par_);
  ASSERT_TRUE(s.ok() && p.ok());
  ExpectBatsIdentical(*s, *p);
}

TEST_F(ParallelKernelTest, ProjectReportsOutOfRangeFromAnyMorsel) {
  BatPtr values = RandomInt32(kRows, 100, 5);
  BatPtr oids = Bat::New(PhysType::kOid);
  oids->Resize(kRows);
  Oid* o = oids->MutableTailData<Oid>();
  for (size_t i = 0; i < kRows; ++i) o[i] = i;
  o[kRows - 3] = kRows + 17;  // out of range near the tail
  auto s = Project(oids, values, ser_);
  auto p = Project(oids, values, par_);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ParallelKernelTest, ProjectStringsMatchesSerial) {
  BatPtr values = Bat::NewString(nullptr);
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  Rng rng(21);
  for (size_t i = 0; i < kRows; ++i) values->AppendString(words[rng.Uniform(5)]);
  BatPtr oids = Bat::New(PhysType::kOid);
  oids->Resize(kRows);
  Oid* o = oids->MutableTailData<Oid>();
  for (size_t i = 0; i < kRows; ++i) o[i] = rng.Uniform(kRows);
  auto s = Project(oids, values, ser_);
  auto p = Project(oids, values, par_);
  ASSERT_TRUE(s.ok() && p.ok());
  ExpectBatsIdentical(*s, *p);
  EXPECT_EQ((*s)->heap(), (*p)->heap());
}

TEST_F(ParallelKernelTest, GroupMatchesSerial) {
  for (uint64_t seed : {31u, 32u}) {
    BatPtr b = RandomInt32(kRows, 97, seed);
    auto s = Group(b, nullptr, 0, ser_);
    auto p = Group(b, nullptr, 0, par_);
    ASSERT_TRUE(s.ok() && p.ok());
    EXPECT_EQ(s->ngroups, p->ngroups);
    ExpectBatsIdentical(s->groups, p->groups);
    ExpectBatsIdentical(s->extents, p->extents);

    // Refinement (multi-column GROUP BY) over a second column.
    BatPtr b2 = RandomInt32(kRows, 13, seed + 100);
    auto s2 = Group(b2, s->groups, s->ngroups, ser_);
    auto p2 = Group(b2, p->groups, p->ngroups, par_);
    ASSERT_TRUE(s2.ok() && p2.ok());
    EXPECT_EQ(s2->ngroups, p2->ngroups);
    ExpectBatsIdentical(s2->groups, p2->groups);
    ExpectBatsIdentical(s2->extents, p2->extents);
  }
}

// The direct-indexed route at its 64Ki-slot bound: a key span of exactly
// 65536, and a 256 × 256 refinement.
TEST_F(ParallelKernelTest, GroupFullDirectDomainMatchesSerial) {
  BatPtr b = RandomInt32(kRows, 65536, 35);
  auto s = Group(b, nullptr, 0, ser_);
  auto p = Group(b, nullptr, 0, par_);
  ASSERT_TRUE(s.ok() && p.ok());
  EXPECT_EQ(s->ngroups, p->ngroups);
  ExpectBatsIdentical(s->groups, p->groups);
  ExpectBatsIdentical(s->extents, p->extents);

  auto sa = Group(RandomInt32(kRows, 256, 36), nullptr, 0, ser_);
  ASSERT_TRUE(sa.ok());
  ASSERT_EQ(sa->ngroups, 256u);
  BatPtr b2 = RandomInt32(kRows, 256, 37);
  auto s2 = Group(b2, sa->groups, sa->ngroups, ser_);
  auto p2 = Group(b2, sa->groups, sa->ngroups, par_);
  ASSERT_TRUE(s2.ok() && p2.ok());
  EXPECT_EQ(s2->ngroups, p2->ngroups);
  ExpectBatsIdentical(s2->groups, p2->groups);
  ExpectBatsIdentical(s2->extents, p2->extents);
}

/// Multiplies every value of an int32 BAT by `stride`.
BatPtr Spread(BatPtr b, int32_t stride) {
  int32_t* v = b->MutableTailData<int32_t>();
  for (size_t i = 0; i < b->Count(); ++i) v[i] *= stride;
  return b;
}

// GroupMatchesSerial's 97 and 13 values take the direct-indexed route.
// Spread over 2^24 the same counts of distinct values hash, so the
// morsel-parallel hash grouping and its renumber pass are compared with
// the serial one, refinement included.
TEST_F(ParallelKernelTest, GroupWideSpanMatchesSerial) {
  for (uint64_t seed : {33u, 34u}) {
    BatPtr b = Spread(RandomInt32(kRows, 97, seed), (1 << 24) / 97);
    auto s = Group(b, nullptr, 0, ser_);
    auto p = Group(b, nullptr, 0, par_);
    ASSERT_TRUE(s.ok() && p.ok());
    EXPECT_EQ(s->ngroups, 97u);
    EXPECT_EQ(s->ngroups, p->ngroups);
    ExpectBatsIdentical(s->groups, p->groups);
    ExpectBatsIdentical(s->extents, p->extents);

    BatPtr b2 = Spread(RandomInt32(kRows, 13, seed + 100), (1 << 24) / 13);
    auto s2 = Group(b2, s->groups, s->ngroups, ser_);
    auto p2 = Group(b2, p->groups, p->ngroups, par_);
    ASSERT_TRUE(s2.ok() && p2.ok());
    EXPECT_EQ(s2->ngroups, 97u * 13u);
    EXPECT_EQ(s2->ngroups, p2->ngroups);
    ExpectBatsIdentical(s2->groups, p2->groups);
    ExpectBatsIdentical(s2->extents, p2->extents);
  }
}

TEST_F(ParallelKernelTest, GroupHighCardinalityMatchesSerial) {
  // Nearly every row its own group: stresses the renumber pass.
  BatPtr b = RandomInt32(kRows, 10 * kRows, 77);
  auto s = Group(b, nullptr, 0, ser_);
  auto p = Group(b, nullptr, 0, par_);
  ASSERT_TRUE(s.ok() && p.ok());
  EXPECT_EQ(s->ngroups, p->ngroups);
  ExpectBatsIdentical(s->groups, p->groups);
  ExpectBatsIdentical(s->extents, p->extents);
}

TEST_F(ParallelKernelTest, AggregatesMatchSerial) {
  BatPtr values = RandomInt32(kRows, 1000000, 51);
  auto g = Group(RandomInt32(kRows, 64, 52), nullptr, 0, ser_);
  ASSERT_TRUE(g.ok());
  const BatPtr& groups = g->groups;
  const size_t ngroups = g->ngroups;

  auto ss = AggrSum(values, groups, ngroups, ser_);
  auto sp = AggrSum(values, groups, ngroups, par_);
  ASSERT_TRUE(ss.ok() && sp.ok());
  ExpectBatsIdentical(*ss, *sp);

  auto cs = AggrCount(groups, ngroups, kRows, ser_);
  auto cp = AggrCount(groups, ngroups, kRows, par_);
  ASSERT_TRUE(cs.ok() && cp.ok());
  ExpectBatsIdentical(*cs, *cp);

  auto ms = AggrMin(values, groups, ngroups, ser_);
  auto mp = AggrMin(values, groups, ngroups, par_);
  ASSERT_TRUE(ms.ok() && mp.ok());
  ExpectBatsIdentical(*ms, *mp);

  auto xs = AggrMax(values, groups, ngroups, ser_);
  auto xp = AggrMax(values, groups, ngroups, par_);
  ASSERT_TRUE(xs.ok() && xp.ok());
  ExpectBatsIdentical(*xs, *xp);
}

TEST_F(ParallelKernelTest, AggrMinMaxDoubleMatchesSerial) {
  Rng rng(61);
  BatPtr values = Bat::New(PhysType::kDouble);
  values->Resize(kRows);
  double* v = values->MutableTailData<double>();
  for (size_t i = 0; i < kRows; ++i) v[i] = rng.NextDouble() - 0.5;
  auto g = Group(RandomInt32(kRows, 32, 62), nullptr, 0, ser_);
  ASSERT_TRUE(g.ok());
  auto ms = AggrMin(values, g->groups, g->ngroups, ser_);
  auto mp = AggrMin(values, g->groups, g->ngroups, par_);
  ASSERT_TRUE(ms.ok() && mp.ok());
  ExpectBatsIdentical(*ms, *mp);
  auto xs = AggrMax(values, g->groups, g->ngroups, ser_);
  auto xp = AggrMax(values, g->groups, g->ngroups, par_);
  ASSERT_TRUE(xs.ok() && xp.ok());
  ExpectBatsIdentical(*xs, *xp);
}

TEST_F(ParallelKernelTest, RadixClusterMatchesSerial) {
  Rng rng(71);
  radix::RadixTable<int32_t> ser_table, par_table;
  const size_t n = kRows;
  ser_table.entries.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ser_table.entries[i] = {static_cast<uint32_t>(i),
                            static_cast<int32_t>(rng.Uniform(1u << 20))};
  }
  par_table.entries = ser_table.entries;
  const std::vector<int> plan = radix::SplitBits(8, 2);
  radix::RadixCluster<int32_t>(&ser_table, plan);
  radix::RadixCluster<int32_t>(&par_table, plan, par_);
  EXPECT_EQ(ser_table.bounds, par_table.bounds);
  EXPECT_EQ(ser_table.bits, par_table.bits);
  ASSERT_EQ(ser_table.entries.size(), par_table.entries.size());
  EXPECT_EQ(ser_table.entries, par_table.entries);
}

TEST_F(ParallelKernelTest, PartitionedHashJoinMatchesSerial) {
  for (uint64_t seed : {81u, 82u}) {
    auto MakePair = [&](BatPtr* l, BatPtr* r) {
      Rng rng(seed);
      *r = Bat::New(PhysType::kInt32);
      (*r)->Resize(100000);
      int32_t* rv = (*r)->MutableTailData<int32_t>();
      for (size_t i = 0; i < 100000; ++i) {
        rv[i] = static_cast<int32_t>(rng.Uniform(120000));
      }
      *l = Bat::New(PhysType::kInt32);
      (*l)->Resize(200000);
      int32_t* lv = (*l)->MutableTailData<int32_t>();
      for (size_t i = 0; i < 200000; ++i) {
        lv[i] = static_cast<int32_t>(rng.Uniform(120000));
      }
    };
    BatPtr l, r;
    MakePair(&l, &r);

    radix::PartitionedJoinOptions sopt;
    sopt.bits = 6;
    sopt.ctx = &ser_;
    radix::PartitionedJoinOptions popt = sopt;
    popt.ctx = &par_;
    auto sres = radix::PartitionedHashJoin(l, r, sopt);
    auto pres = radix::PartitionedHashJoin(l, r, popt);
    ASSERT_TRUE(sres.ok() && pres.ok());
    ExpectBatsIdentical(sres->left, pres->left);
    ExpectBatsIdentical(sres->right, pres->right);
    // Sanity: the parallel join agrees with the simple hash join on size.
    auto simple = algebra::HashJoin(l, r);
    ASSERT_TRUE(simple.ok());
    EXPECT_EQ(pres->Count(), simple->Count());
  }
}

}  // namespace
}  // namespace mammoth
