/// Bit-identity suite for the compressed-direct kernels (DESIGN.md §13):
/// RLE/PDICT selects and aggregate folds, dictionary string predicates,
/// bounded projection, recycler compressed admission — each checked
/// against decode-then-stock-kernel on adversarial data shapes, through
/// the shared-scan scheduler at pools of 1/2/4/8, over the wire, and
/// across a checkpoint → kill → recover cycle for dictionary-compressed
/// string columns. Style follows compressed_query_test.cc.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "compress/compressed_bat.h"
#include "compress/compressed_exec.h"
#include "compress/compressed_kernels.h"
#include "compress/dict_str.h"
#include "core/candidates.h"
#include "core/group.h"
#include "core/persist.h"
#include "core/project.h"
#include "core/select.h"
#include "core/table.h"
#include "mal/interpreter.h"
#include "parallel/task_pool.h"
#include "recycle/recycler.h"
#include "scan/shared_scan.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"
#include "wal/db.h"

namespace mammoth {
namespace {

namespace fs = std::filesystem;

using compress::Codec;
using compress::CompressedBat;
using compress::StrDict;
using server::Client;
using server::EncodeResult;
using server::Server;
using server::ServerConfig;

// ------------------------------------------------------------ data shapes --

BatPtr I32FromFn(size_t n, int32_t (*fn)(size_t, Rng&), uint64_t seed) {
  BatPtr b = Bat::New(PhysType::kInt32);
  b->Resize(n);
  int32_t* p = b->MutableTailData<int32_t>();
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) p[i] = fn(i, rng);
  return b;
}

/// Long runs of random length 1..300, values 0..9 (RLE's home turf).
BatPtr RunHeavyI32(size_t n) {
  BatPtr b = Bat::New(PhysType::kInt32);
  b->Resize(n);
  int32_t* p = b->MutableTailData<int32_t>();
  Rng rng(11);
  size_t i = 0;
  while (i < n) {
    const int32_t v = static_cast<int32_t>(rng.Uniform(10));
    size_t len = 1 + rng.Uniform(300);
    for (; len > 0 && i < n; --len, ++i) p[i] = v;
  }
  return b;
}

/// Low cardinality, no run structure (PDICT's home turf).
BatPtr LowCardI32(size_t n) {
  return I32FromFn(
      n, [](size_t, Rng& r) { return static_cast<int32_t>(r.Uniform(8)); },
      22);
}

/// Adversarial for RLE: alternating values with occasional spikes, so the
/// run list is nearly one run per row (plus singleton runs at the spikes).
BatPtr AdversarialI32(size_t n) {
  return I32FromFn(
      n,
      [](size_t i, Rng& r) {
        if (r.Uniform(97) == 0) return static_cast<int32_t>(9);
        return static_cast<int32_t>(i % 2);
      },
      33);
}

BatPtr AllEqualI32(size_t n) {
  return I32FromFn(n, [](size_t, Rng&) { return int32_t{7}; }, 44);
}

Oid OidAt(const BatPtr& b, size_t i) {
  return b->IsDenseTail() ? b->tseqbase() + static_cast<Oid>(i)
                          : b->ValueAt<Oid>(i);
}

void ExpectSameOids(const BatPtr& got, const BatPtr& want,
                    const std::string& what) {
  ASSERT_EQ(got->Count(), want->Count()) << what;
  for (size_t i = 0; i < want->Count(); ++i) {
    ASSERT_EQ(OidAt(got, i), OidAt(want, i)) << what << " at row " << i;
  }
  EXPECT_EQ(got->props().sorted, want->props().sorted) << what;
  EXPECT_EQ(got->props().key, want->props().key) << what;
}

// -------------------------------------------------------- select kernels --

constexpr size_t kShapeRows = 70001;  // crosses a stat-block boundary

struct Shape {
  const char* name;
  BatPtr bat;
};

std::vector<Shape> SelectShapes() {
  return {{"runs", RunHeavyI32(kShapeRows)},
          {"lowcard", LowCardI32(kShapeRows)},
          {"adversarial", AdversarialI32(kShapeRows)},
          {"allequal", AllEqualI32(kShapeRows)}};
}

/// Heads the code-space selects run at: 0, as every engine bind has it,
/// and an arbitrary nonzero head, so a kernel that drops `hseq` fails.
constexpr Oid kHeads[] = {0, 1000003};

/// Chunk cuts for the shared-scan delivery contract: a third of the way
/// in (off every grid), on and just past a 4096-row code batch, and on a
/// 128-row PFOR block.
std::vector<size_t> ChunkCuts(size_t n) {
  return {n / 3 + 7, 4096, 4096 * 5 + 1, 128 * 7};
}

/// The decoded column headed at `hseq`: the oracle's input.
BatPtr DecodedAt(const CompressedBat& comp, Oid hseq) {
  auto decoded = comp.Decode();
  EXPECT_TRUE(decoded.ok());
  (*decoded)->set_hseqbase(hseq);
  return *decoded;
}

/// A whole-column result split at `cut` ([0,cut) ++ [cut,n)) concatenates
/// to `want` — the shared-scan delivery contract.
template <typename SelectFn>
void ExpectChunksConcatenate(const SelectFn& select, size_t n, size_t cut,
                             const BatPtr& want, const std::string& what) {
  auto lo = select(0, cut);
  auto hi = select(cut, n);
  ASSERT_TRUE(lo.ok() && hi.ok()) << what;
  ASSERT_EQ((*lo)->Count() + (*hi)->Count(), want->Count()) << what;
  for (size_t i = 0; i < (*lo)->Count(); ++i) {
    ASSERT_EQ(OidAt(*lo, i), OidAt(want, i)) << what;
  }
  for (size_t i = 0; i < (*hi)->Count(); ++i) {
    ASSERT_EQ(OidAt(*hi, i), OidAt(want, (*lo)->Count() + i)) << what;
  }
}

TEST(CompressedKernelTest, ThetaSelectBitIdenticalAcrossShapesOpsAndChunks) {
  const std::vector<CmpOp> ops = {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq,
                                  CmpOp::kNe, CmpOp::kGe, CmpOp::kGt};
  const std::vector<int64_t> probes = {-1, 0, 5, 9, 100};  // absent + edges
  size_t eligible = 0;
  for (const Shape& shape : SelectShapes()) {
    for (const Codec codec : {Codec::kRle, Codec::kPdict}) {
      auto comp = CompressedBat::Compress(shape.bat, codec);
      if (!comp.ok()) continue;  // codec not applicable to this shape
      const size_t n = comp->Count();
      for (const Oid hseq : kHeads) {
        const BatPtr decoded = DecodedAt(*comp, hseq);
        for (const CmpOp op : ops) {
          for (const int64_t pv : probes) {
            const Value v = Value::Int(pv);
            const std::string what =
                std::string(shape.name) + "/" + compress::CodecName(codec) +
                " op " + std::to_string(static_cast<int>(op)) +
                " v=" + std::to_string(pv) + " head " + std::to_string(hseq);
            if (!compress::ThetaSelectableOnCompressed(*comp, v, op)) continue;
            ++eligible;
            auto want = algebra::ThetaSelect(decoded, nullptr, v, op,
                                             parallel::ExecContext::Serial());
            ASSERT_TRUE(want.ok()) << what;
            auto got =
                compress::CompressedThetaSelectRange(*comp, v, op, 0, n, hseq);
            ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
            ExpectSameOids(*got, *want, what);
            const auto select = [&](size_t b, size_t e) {
              return compress::CompressedThetaSelectRange(*comp, v, op, b, e,
                                                          hseq);
            };
            for (const size_t cut : ChunkCuts(n)) {
              ExpectChunksConcatenate(select, n, cut, *want,
                                      what + " cut " + std::to_string(cut));
            }
          }
        }
      }
    }
  }
  // The matrix must actually exercise the direct path, not skip it all.
  EXPECT_GT(eligible, 100u);
}

TEST(CompressedKernelTest, RangeSelectBitIdenticalIncludingAntiAndOpenEnds) {
  struct RangeCase {
    int64_t lo, hi;
    bool lo_incl, hi_incl, anti;
  };
  const std::vector<RangeCase> cases = {
      {2, 7, true, true, false},   {2, 7, false, false, false},
      {2, 7, true, false, false},  {2, 7, true, true, true},
      {0, 9, true, true, false},   {100, 200, true, true, false},
      {-5, -1, true, true, false}, {5, 5, true, true, false},
  };
  size_t eligible = 0;
  for (const Shape& shape : SelectShapes()) {
    for (const Codec codec : {Codec::kRle, Codec::kPdict}) {
      auto comp = CompressedBat::Compress(shape.bat, codec);
      if (!comp.ok()) continue;
      const size_t n = comp->Count();
      for (const Oid hseq : kHeads) {
        const BatPtr decoded = DecodedAt(*comp, hseq);
        for (const RangeCase& c : cases) {
          const Value lo = Value::Int(c.lo);
          const Value hi = Value::Int(c.hi);
          if (!compress::RangeSelectableOnCompressed(*comp, lo, hi)) continue;
          ++eligible;
          const std::string what =
              std::string(shape.name) + "/" + compress::CodecName(codec) +
              " [" + std::to_string(c.lo) + "," + std::to_string(c.hi) +
              "] anti=" + std::to_string(c.anti) + " head " +
              std::to_string(hseq);
          auto want = algebra::RangeSelect(decoded, nullptr, lo, hi, c.lo_incl,
                                           c.hi_incl, c.anti,
                                           parallel::ExecContext::Serial());
          ASSERT_TRUE(want.ok()) << what;
          const auto select = [&](size_t b, size_t e) {
            return compress::CompressedRangeSelectRange(
                *comp, lo, hi, c.lo_incl, c.hi_incl, c.anti, b, e, hseq);
          };
          auto got = select(0, n);
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          ExpectSameOids(*got, *want, what);
          for (const size_t cut : ChunkCuts(n)) {
            ExpectChunksConcatenate(select, n, cut, *want,
                                    what + " cut " + std::to_string(cut));
          }
        }
      }
    }
  }
  EXPECT_GT(eligible, 40u);
}

TEST(CompressedKernelTest, SortedColumnsAreNotEligible) {
  // The plain path answers sorted selects with a binary search returning a
  // *dense* result; a materializing kernel cannot match that bit-for-bit,
  // so eligibility must say no.
  BatPtr b = Bat::New(PhysType::kInt32);
  b->Resize(kShapeRows);
  int32_t* p = b->MutableTailData<int32_t>();
  for (size_t i = 0; i < kShapeRows; ++i) {
    p[i] = static_cast<int32_t>(i / 1000);
  }
  b->mutable_props().sorted = true;
  auto comp = CompressedBat::Compress(b, Codec::kRle);
  ASSERT_TRUE(comp.ok());
  EXPECT_FALSE(compress::ThetaSelectableOnCompressed(*comp, Value::Int(5),
                                                     CmpOp::kEq));
  EXPECT_FALSE(compress::RangeSelectableOnCompressed(*comp, Value::Int(2),
                                                     Value::Int(7)));
}

/// A sorted column of `type` with duplicates: value i/7*2 (so odd probes
/// are absent), a run of 300 equal rows across 128-row blocks near the
/// third 4096-row batch, and a jump of 1000 just past the first
/// statistics block. int64 values sit above 2^40.
BatPtr SortedDupsColumn(PhysType type, size_t n) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<int64_t>(i / 7 * 2) + (i >= 65540 ? 1000 : 0);
    if (i >= 12200 && i < 12500) v[i] = v[12200];
  }
  BatPtr b = Bat::New(type);
  for (int64_t x : v) {
    if (type == PhysType::kInt32) {
      b->Append<int32_t>(static_cast<int32_t>(x));
    } else {
      b->Append<int64_t>(x + (int64_t{1} << 40));
    }
  }
  b->mutable_props().sorted = true;
  return b;
}

/// A sorted compressed column selects by binary search on every codec and
/// width: the same dense result (or, for `<>` and anti ranges, the same
/// materialized rows) as the plain binary search over the decoded column,
/// with the same head, and no whole-column decode.
TEST(CompressedKernelTest, SortedSelectBinarySearchesTheCodecStream) {
  const size_t n = 2 * CompressedBat::kStatBlockRows + 3001;
  const std::vector<CmpOp> ops = {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq,
                                  CmpOp::kNe, CmpOp::kGe, CmpOp::kGt};
  size_t checked = 0;
  for (const PhysType type : {PhysType::kInt32, PhysType::kInt64}) {
    const BatPtr col = SortedDupsColumn(type, n);
    const int64_t off = type == PhysType::kInt32 ? 0 : int64_t{1} << 40;
    auto at = [&](size_t row) {
      return type == PhysType::kInt32 ? col->ValueAt<int32_t>(row)
                                      : col->ValueAt<int64_t>(row);
    };
    // Below and above every value, the two ends, an absent odd value, the
    // duplicate run, values at 128-block, 4096-batch and stat-block edges.
    const std::vector<int64_t> probes = {
        off - 5,    at(0),     at(0) + 1,   at(127),   at(128),
        at(12300),  at(4096),  at(65535),   at(65536), at(65541),
        at(n - 1),  at(n - 1) + 1};
    for (const Codec codec :
         {Codec::kPfor, Codec::kPforDelta, Codec::kRle, Codec::kPdict}) {
      auto comp_r = CompressedBat::Compress(col, codec);
      if (!comp_r.ok()) continue;  // PDICT has no int64 variant
      auto comp = std::make_shared<const CompressedBat>(*std::move(comp_r));
      ASSERT_TRUE(comp->props().sorted);
      for (const Oid hseq : kHeads) {
        const BatPtr decoded = DecodedAt(*comp, hseq);
        const scan::ColumnSource source =
            scan::ColumnSource::Compressed(comp, hseq);
        std::vector<std::pair<scan::ScanPredicate, std::string>> preds;
        for (const int64_t p : probes) {
          for (const CmpOp op : ops) {
            preds.push_back({scan::ScanPredicate::Theta(Value::Int(p), op),
                             "op " + std::to_string(static_cast<int>(op)) +
                                 " " + std::to_string(p)});
          }
          for (const int64_t q : {probes[3], probes[5], probes[9]}) {
            for (const bool anti : {false, true}) {
              preds.push_back(
                  {scan::ScanPredicate::Range(Value::Int(p), Value::Int(q),
                                              anti),
                   "range " + std::to_string(p) + ".." + std::to_string(q) +
                       (anti ? " anti" : "")});
            }
          }
          preds.push_back({scan::ScanPredicate::Range(Value(), Value::Int(p),
                                                      false),
                           "range ..=" + std::to_string(p)});
          preds.push_back({scan::ScanPredicate::Range(Value::Int(p), Value(),
                                                      true),
                           "anti range " + std::to_string(p) + "=.."});
        }
        for (const auto& [pred, desc] : preds) {
          const std::string what = std::string(compress::CodecName(codec)) +
                                   "/" + TypeName(type) + " head " +
                                   std::to_string(hseq) + " " + desc;
          auto want = scan::RunKernel(decoded, nullptr, pred,
                                      parallel::ExecContext::Serial());
          ASSERT_TRUE(want.ok()) << what;
          const compress::KernelStats before = compress::GetKernelStats();
          auto got = scan::RunKernelSource(source, pred,
                                           parallel::ExecContext::Serial());
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          const compress::KernelStats after = compress::GetKernelStats();
          EXPECT_EQ(after.selects_direct, before.selects_direct + 1) << what;
          EXPECT_EQ(after.project_full, before.project_full) << what;
          EXPECT_EQ((*got)->IsDenseTail(), (*want)->IsDenseTail()) << what;
          EXPECT_EQ((*got)->hseqbase(), (*want)->hseqbase()) << what;
          EXPECT_EQ((*got)->props().revsorted, (*want)->props().revsorted)
              << what;
          ExpectSameOids(*got, *want, what);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

/// Every codec's range decode and row gather equal the whole decode, at
/// starts and rows on both sides of 128-row blocks, 4096-row batches and
/// statistics blocks, for sorted, unsorted and repeating row lists; the
/// projections over them keep the OID list's (nonzero) head.
TEST(CompressedKernelTest, RangeDecodesAndGathersMatchDecodeAcrossBoundaries) {
  const size_t n = CompressedBat::kStatBlockRows + 5003;
  std::vector<Shape> shapes = {
      {"runs", RunHeavyI32(n)},
      {"lowcard", LowCardI32(n)},
      {"adversarial", AdversarialI32(n)},
      {"sorted", SortedDupsColumn(PhysType::kInt32, n)},
      {"sorted64", SortedDupsColumn(PhysType::kInt64, n)}};
  // Small values with far outliers: PFOR blocks carry exceptions.
  BatPtr spiky = Bat::New(PhysType::kInt64);
  Rng rng(91);
  for (size_t i = 0; i < n; ++i) {
    spiky->Append<int64_t>(rng.Uniform(20) == 0
                               ? static_cast<int64_t>(rng.Next())
                               : static_cast<int64_t>(rng.Uniform(50)));
  }
  shapes.push_back({"spiky64", spiky});
  const std::vector<size_t> starts = {0,    1,    127,   128,   129,  4095,
                                      4096, 4097, 65535, 65536, 65537, n - 1};
  const std::vector<size_t> lens = {1, 2, 127, 128, 129, 300, 4097};
  size_t checked = 0;
  for (const Shape& shape : shapes) {
    for (const Codec codec :
         {Codec::kPfor, Codec::kPforDelta, Codec::kPdict, Codec::kRle}) {
      auto comp_r = CompressedBat::Compress(shape.bat, codec);
      if (!comp_r.ok()) continue;
      auto comp = std::make_shared<const CompressedBat>(*std::move(comp_r));
      const std::string what =
          std::string(shape.name) + "/" + compress::CodecName(codec);
      auto whole_r = comp->Decode();
      ASSERT_TRUE(whole_r.ok()) << what;
      const BatPtr whole = *whole_r;
      const size_t w = comp->width();
      const auto* ref = static_cast<const uint8_t*>(whole->tail().raw_data());
      std::vector<uint8_t> buf((n + 8) * w);
      for (const size_t start : starts) {
        for (const size_t len : lens) {
          const size_t m = std::min(len, n - start);
          ASSERT_TRUE(comp->DecodeRangeRaw(start, m, buf.data()).ok())
              << what << " range " << start << "+" << m;
          ASSERT_EQ(std::memcmp(buf.data(), ref + start * w, m * w), 0)
              << what << " range " << start << "+" << m;
          ++checked;
        }
      }
      // Row lists: boundary rows, a sorted ~5% sample, the same shuffled,
      // and repeats.
      std::vector<Oid> sorted_rows;
      for (size_t i = 0; i < n; ++i) {
        if (rng.Uniform(20) == 0) sorted_rows.push_back(i);
      }
      std::vector<Oid> shuffled = sorted_rows;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
      }
      std::vector<Oid> edges;
      for (const size_t start : starts) {
        edges.push_back(start);
        edges.push_back(start);
        edges.push_back(n - 1 - start);
      }
      for (const std::vector<Oid>* rows : {&sorted_rows, &shuffled, &edges}) {
        ASSERT_TRUE(comp->Gather(rows->data(), rows->size(), buf.data()).ok())
            << what;
        for (size_t i = 0; i < rows->size(); ++i) {
          ASSERT_EQ(std::memcmp(buf.data() + i * w, ref + (*rows)[i] * w, w), 0)
              << what << " gather row " << (*rows)[i];
        }
        BatPtr oids = Bat::New(PhysType::kOid);
        oids->AppendRaw(rows->data(), rows->size());
        oids->set_hseqbase(77);
        auto got = compress::CompressedProject(oids, comp);
        auto want =
            algebra::Project(oids, whole, parallel::ExecContext::Serial());
        ASSERT_TRUE(got.ok() && want.ok()) << what;
        EXPECT_EQ((*got)->hseqbase(), 77u) << what;
        ASSERT_EQ((*got)->Count(), (*want)->Count()) << what;
        EXPECT_EQ(std::memcmp((*got)->tail().raw_data(),
                              (*want)->tail().raw_data(), rows->size() * w),
                  0)
            << what;
        ++checked;
      }
      const Oid beyond = n;
      EXPECT_EQ(comp->Gather(&beyond, 1, buf.data()).code(),
                StatusCode::kOutOfRange)
          << what;
    }
  }
  EXPECT_GT(checked, 1500u);
}

/// An unsorted OID list over (compressed main, pending delta) gathers each
/// row from its own side: equal to the plain projection over main ++
/// delta, with no whole-column decode; an OID past the delta is the plain
/// kernel's OutOfRange.
TEST(CompressedKernelTest, UnsortedProjectionOverMainAndDeltaGathersEachSide) {
  const size_t n = 20000;
  for (const PhysType type : {PhysType::kInt32, PhysType::kInt64}) {
    BatPtr main = type == PhysType::kInt32
                      ? LowCardI32(n)
                      : SortedDupsColumn(PhysType::kInt64, n);
    BatPtr delta = Bat::New(type);
    for (int i = 0; i < 50; ++i) {
      if (type == PhysType::kInt32) {
        delta->Append<int32_t>(1000 + i);
      } else {
        delta->Append<int64_t>(-int64_t{1} - i);
      }
    }
    delta->set_hseqbase(n);
    for (const Codec codec :
         {Codec::kPfor, Codec::kPforDelta, Codec::kPdict, Codec::kRle}) {
      auto comp_r = CompressedBat::Compress(main, codec);
      if (!comp_r.ok()) continue;
      auto comp = std::make_shared<const CompressedBat>(*std::move(comp_r));
      const std::string what =
          std::string(TypeName(type)) + "/" + compress::CodecName(codec);
      BatPtr oids = Bat::New(PhysType::kOid);
      Rng rng(92);
      for (int i = 0; i < 500; ++i) {
        oids->Append<Oid>(rng.Uniform(4) == 0 ? n + rng.Uniform(50)
                                              : rng.Uniform(n));
      }
      oids->set_hseqbase(9);
      ASSERT_FALSE(KnownSorted(oids));
      auto decoded = comp->Decode();
      ASSERT_TRUE(decoded.ok());
      auto want = algebra::Project(oids, ConcatColumn(*decoded, delta),
                                   parallel::ExecContext::Serial());
      const compress::KernelStats before = compress::GetKernelStats();
      auto got = compress::ProjectMainDelta(oids, nullptr, comp, delta,
                                            parallel::ExecContext::Serial());
      ASSERT_TRUE(want.ok() && got.ok()) << what;
      EXPECT_EQ(compress::GetKernelStats().project_full, before.project_full)
          << what;
      EXPECT_EQ((*got)->hseqbase(), (*want)->hseqbase()) << what;
      ASSERT_EQ((*got)->Count(), (*want)->Count()) << what;
      EXPECT_EQ(std::memcmp((*got)->tail().raw_data(),
                            (*want)->tail().raw_data(),
                            oids->Count() * comp->width()),
                0)
          << what;
      oids->Append<Oid>(n + 50);
      auto beyond = compress::ProjectMainDelta(oids, nullptr, comp, delta,
                                               parallel::ExecContext::Serial());
      ASSERT_FALSE(beyond.ok()) << what;
      EXPECT_EQ(beyond.status().code(), StatusCode::kOutOfRange) << what;
    }
  }
}

// ----------------------------------------------------- aggregate kernels --

TEST(CompressedKernelTest, AggregateFoldsBitIdentical) {
  std::vector<Shape> shapes = SelectShapes();
  // An int64 RLE shape with values far above 2^32, so the fold exercises
  // the wide accumulator path too.
  BatPtr big = Bat::New(PhysType::kInt64);
  big->Resize(kShapeRows);
  int64_t* bp = big->MutableTailData<int64_t>();
  for (size_t i = 0; i < kShapeRows; ++i) {
    bp[i] = (int64_t{1} << 40) + static_cast<int64_t>(i / 5000);
  }
  shapes.push_back({"bigruns", big});

  size_t eligible = 0;
  for (const Shape& shape : shapes) {
    for (const Codec codec : {Codec::kRle, Codec::kPdict}) {
      auto comp = CompressedBat::Compress(shape.bat, codec);
      if (!comp.ok()) continue;
      if (!compress::AggregatableOnCompressed(*comp)) continue;
      ++eligible;
      auto decoded = comp->Decode();
      ASSERT_TRUE(decoded.ok());
      const std::string what =
          std::string(shape.name) + "/" + compress::CodecName(codec);

      auto want_sum = algebra::AggrSum(*decoded, nullptr, 1,
                                       parallel::ExecContext::Serial());
      auto got_sum = compress::CompressedAggrSum(*comp);
      ASSERT_TRUE(want_sum.ok() && got_sum.ok()) << what;
      ASSERT_EQ((*got_sum)->Count(), 1u) << what;
      EXPECT_EQ((*got_sum)->ValueAt<int64_t>(0), (*want_sum)->ValueAt<int64_t>(0))
          << what;

      auto want_min = algebra::AggrMin(*decoded, nullptr, 1,
                                       parallel::ExecContext::Serial());
      auto got_min = compress::CompressedAggrMin(*comp);
      ASSERT_TRUE(want_min.ok() && got_min.ok()) << what;
      ASSERT_EQ((*got_min)->type(), (*want_min)->type()) << what;
      auto want_max = algebra::AggrMax(*decoded, nullptr, 1,
                                       parallel::ExecContext::Serial());
      auto got_max = compress::CompressedAggrMax(*comp);
      ASSERT_TRUE(want_max.ok() && got_max.ok()) << what;
      if ((*got_min)->type() == PhysType::kInt64) {
        EXPECT_EQ((*got_min)->ValueAt<int64_t>(0),
                  (*want_min)->ValueAt<int64_t>(0))
            << what;
        EXPECT_EQ((*got_max)->ValueAt<int64_t>(0),
                  (*want_max)->ValueAt<int64_t>(0))
            << what;
      } else {
        EXPECT_EQ((*got_min)->ValueAt<int32_t>(0),
                  (*want_min)->ValueAt<int32_t>(0))
            << what;
        EXPECT_EQ((*got_max)->ValueAt<int32_t>(0),
                  (*want_max)->ValueAt<int32_t>(0))
            << what;
      }
    }
  }
  EXPECT_GT(eligible, 3u);
}

// ------------------------------------------------- string dictionary ----

BatPtr WordsBat(size_t n, size_t vocab, uint64_t seed) {
  BatPtr b = Bat::NewString(nullptr);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    b->AppendString("w" + std::to_string(rng.Uniform(vocab)));
  }
  return b;
}

/// The OIDs of `b` shifted by `by`: a select result as if its column's
/// head started at `by`.
std::vector<Oid> ShiftedOids(const BatPtr& b, Oid by) {
  std::vector<Oid> out(b->Count());
  for (size_t i = 0; i < out.size(); ++i) out[i] = OidAt(b, i) + by;
  return out;
}

TEST(CompressedKernelTest, DictStrSelectBitIdenticalAcrossOpsAndProbes) {
  const size_t n = 50000;
  const std::vector<CmpOp> ops = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                  CmpOp::kLe, CmpOp::kGe, CmpOp::kGt};
  // Present, absent-in-range, below-all, above-all.
  const std::vector<std::string> probes = {"w12", "w12x", "a", "zzz", "w0",
                                           "w9"};
  // The chunk cut lies off byte boundaries for every odd code width and
  // off the kernel's 4096-code batch boundaries; the head is nonzero.
  const size_t cut = n / 2 + 13;
  const Oid hseq = 1000003;
  // 30 words pack at 5 bits, one word at 0 bits (every code is 0),
  // 2^6+1 words at 7 bits, and 200 words at 8 bits (the byte-aligned
  // unpack path).
  for (const size_t vocab :
       {size_t{30}, size_t{1}, size_t{65}, size_t{200}}) {
    BatPtr plain = WordsBat(n, vocab, 55);
    auto dict_r = StrDict::Encode(plain);
    ASSERT_TRUE(dict_r.ok()) << dict_r.status().ToString();
    const StrDict dict = *dict_r;
    ASSERT_EQ(dict.dsize(), vocab);
    EXPECT_LT(dict.CompressedBytes(), dict.LogicalBytes());
    for (const CmpOp op : ops) {
      for (const std::string& s : probes) {
        const Value v = Value::Str(s);
        // `=` is left to the plain kernel; the code-space kernel must still
        // answer it bit-identically.
        EXPECT_EQ(compress::StrSelectableOnDict(v, op), op != CmpOp::kEq);
        const std::string what = "vocab " + std::to_string(vocab) + " op " +
                                 std::to_string(static_cast<int>(op)) +
                                 " '" + s + "'";
        auto want = algebra::ThetaSelect(plain, nullptr, v, op,
                                         parallel::ExecContext::Serial());
        ASSERT_TRUE(want.ok()) << what;
        auto got =
            compress::DictStrSelectRange(dict, v, op, 0, n, /*hseq=*/0);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        ExpectSameOids(*got, *want, what);

        // Chunked evaluation under a nonzero head concatenates to the
        // whole-column answer shifted by that head.
        auto lo = compress::DictStrSelectRange(dict, v, op, 0, cut, hseq);
        auto hi = compress::DictStrSelectRange(dict, v, op, cut, n, hseq);
        ASSERT_TRUE(lo.ok() && hi.ok()) << what;
        std::vector<Oid> chunked = ShiftedOids(*lo, 0);
        const std::vector<Oid> tail = ShiftedOids(*hi, 0);
        chunked.insert(chunked.end(), tail.begin(), tail.end());
        EXPECT_EQ(chunked, ShiftedOids(*want, hseq)) << what;
      }
    }
  }
}

TEST(CompressedKernelTest, DictStrLikeBitIdenticalIncludingEmptyAndAllMatch) {
  const size_t n = 40000;
  BatPtr plain = WordsBat(n, 25, 66);
  auto dict = StrDict::Encode(plain);
  ASSERT_TRUE(dict.ok());
  const std::vector<std::string> patterns = {
      "w1%",       // prefix: one code interval
      "%",         // all-match
      "w7",        // no wildcard: equality
      "%3",        // suffix: per-word LUT
      "w_",        // underscore
      "%never%",   // empty selection
      "w%2%",      // general multi-wildcard
  };
  for (const std::string& pat : patterns) {
    const Value v = Value::Str(pat);
    ASSERT_TRUE(compress::StrSelectableOnDict(v, CmpOp::kLike)) << pat;
    auto want = algebra::ThetaSelect(plain, nullptr, v, CmpOp::kLike,
                                     parallel::ExecContext::Serial());
    ASSERT_TRUE(want.ok()) << pat;
    auto got =
        compress::DictStrSelectRange(*dict, v, CmpOp::kLike, 0, n, /*hseq=*/0);
    ASSERT_TRUE(got.ok()) << pat << ": " << got.status().ToString();
    ExpectSameOids(*got, *want, "LIKE '" + pat + "'");
  }
  // The adversarial patterns above must include both extremes.
  auto none = compress::DictStrSelectRange(*dict, Value::Str("%never%"),
                                           CmpOp::kLike, 0, n, 0);
  EXPECT_EQ((*none)->Count(), 0u);
  auto all =
      compress::DictStrSelectRange(*dict, Value::Str("%"), CmpOp::kLike, 0, n, 0);
  EXPECT_EQ((*all)->Count(), n);
}

TEST(CompressedKernelTest, StrDictSerializeRoundTrips) {
  BatPtr plain = WordsBat(12345, 40, 77);
  auto dict = StrDict::Encode(plain);
  ASSERT_TRUE(dict.ok());
  std::string image;
  dict->Serialize(&image);
  auto back = StrDict::Deserialize(image);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->Count(), plain->Count());
  ASSERT_EQ(back->dsize(), dict->dsize());
  auto decoded = back->Decode();
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < plain->Count(); ++i) {
    ASSERT_EQ((*decoded)->StringAt(i), plain->StringAt(i)) << i;
  }
}

// ------------------------------------------------------ engine-level ----

constexpr size_t kChunk = size_t{1} << 16;
constexpr size_t kRows = 3 * kChunk + 500;  // shared-scan eligible, ragged

/// A table whose columns hit every direct path: `id` sorted ints, `val`
/// random ints, `grp` long runs (RLE aggregate fold), `tag` a
/// low-cardinality string column (dictionary code space).
TablePtr LogsTable() {
  BatPtr id = Bat::New(PhysType::kInt32);
  BatPtr val = Bat::New(PhysType::kInt32);
  BatPtr grp = Bat::New(PhysType::kInt32);
  id->Resize(kRows);
  val->Resize(kRows);
  grp->Resize(kRows);
  int32_t* idp = id->MutableTailData<int32_t>();
  int32_t* vp = val->MutableTailData<int32_t>();
  int32_t* gp = grp->MutableTailData<int32_t>();
  BatPtr tag = Bat::NewString(nullptr);
  Rng rng(888);
  for (size_t i = 0; i < kRows; ++i) {
    idp[i] = static_cast<int32_t>(i);
    vp[i] = static_cast<int32_t>(rng.Uniform(10000));
    gp[i] = static_cast<int32_t>(i / 1000);
    tag->AppendString("w" + std::to_string((i / 500) % 40));
  }
  auto t = Table::FromColumns("logs",
                              {{"id", PhysType::kInt32},
                               {"val", PhysType::kInt32},
                               {"grp", PhysType::kInt32},
                               {"tag", PhysType::kStr}},
                              {id, val, grp, tag});
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

const std::vector<std::string>& StringQueries() {
  static const std::vector<std::string> queries = {
      "SELECT id FROM logs WHERE tag = 'w7'",
      "SELECT id, tag FROM logs WHERE tag LIKE 'w1%'",
      "SELECT COUNT(*), SUM(val) FROM logs WHERE tag <> 'w5'",
      "SELECT SUM(grp), MIN(grp), MAX(grp) FROM logs",
      "SELECT id FROM logs WHERE tag >= 'w35'",
      "SELECT COUNT(*) FROM logs WHERE tag < 'w1'",
      "SELECT COUNT(*) FROM logs WHERE tag LIKE '%9'",
  };
  return queries;
}

std::vector<std::string> PlainLogEncodings() {
  sql::Engine plain;
  EXPECT_TRUE(plain.catalog()->Register(LogsTable()).ok());
  std::vector<std::string> encodings;
  for (const std::string& q : StringQueries()) {
    auto r = plain.Execute(q, parallel::ExecContext::Serial());
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    auto payload = EncodeResult(*r);
    EXPECT_TRUE(payload.ok());
    encodings.push_back(*payload);
  }
  return encodings;
}

TEST(CompressedKernelTest, StringAndAggregateQueriesBitIdenticalDirect) {
  const std::vector<std::string> expected = PlainLogEncodings();

  sql::Engine engine;
  ASSERT_TRUE(engine.catalog()->Register(LogsTable()).ok());
  ASSERT_TRUE(engine.Execute("ALTER TABLE logs COMPRESS").ok());

  // The string column carries a dictionary after the policy flip.
  auto t = engine.catalog()->Get("logs");
  ASSERT_TRUE(t.ok());
  EXPECT_NE((*t)->StringDictColumn(3), nullptr);

  const auto before = compress::GetKernelStats();
  for (size_t q = 0; q < StringQueries().size(); ++q) {
    auto r = engine.Execute(StringQueries()[q], parallel::ExecContext::Serial());
    ASSERT_TRUE(r.ok()) << StringQueries()[q] << ": " << r.status().ToString();
    auto payload = EncodeResult(*r);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, expected[q]) << StringQueries()[q];
  }
  const auto after = compress::GetKernelStats();
  // The workload stays in code space: dictionary string selects and the
  // RLE aggregate folds both route direct.
  EXPECT_GT(after.selects_direct, before.selects_direct);
  EXPECT_GT(after.aggrs_direct, before.aggrs_direct);
}

TEST(CompressedKernelTest, StringQueriesSharedScansBitIdenticalAcrossPools) {
  const std::vector<std::string> expected = PlainLogEncodings();

  for (int threads : {1, 2, 4, 8}) {
    sql::Engine engine;
    ASSERT_TRUE(engine.catalog()->Register(LogsTable()).ok());
    ASSERT_TRUE(engine.Execute("ALTER TABLE logs COMPRESS").ok());

    scan::SharedScanConfig config;
    config.chunk_bytes = kChunk;
    config.min_share_rows = kChunk;
    scan::SharedScanScheduler sched(config);
    engine.AttachSharedScans(&sched);
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);

    std::vector<std::thread> sessions;
    for (int s = 0; s < 6; ++s) {
      sessions.emplace_back([&, s] {
        for (int round = 0; round < 3; ++round) {
          const size_t q = (s + round) % StringQueries().size();
          auto r = engine.Execute(StringQueries()[q], ctx);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          auto payload = EncodeResult(*r);
          ASSERT_TRUE(payload.ok());
          EXPECT_EQ(*payload, expected[q]) << StringQueries()[q];
        }
      });
    }
    for (auto& s : sessions) s.join();

    const auto stats = sched.stats();
    EXPECT_GT(stats.scans_attached + stats.scans_direct, 0u) << threads;
    EXPECT_GT(stats.bytes_loaded, 0u) << threads;
  }
}

// ------------------------------------------- seeded route equivalence --

/// Column shapes of the route-equivalence table. Under ALTER ... COMPRESS
/// they reach every select route: RLE and PDICT (int32 only) code space,
/// PFOR chunk-wise decode, PFOR-DELTA (the sorted shape, stamped sorted
/// like a key column) binary search, chunk-wise decode once a merge has
/// dropped the stamp and, via `tag`, the string dictionary.
enum class RouteShape { kRuns, kLowCard, kRandom, kSorted };

struct RouteColumn {
  std::string name;
  PhysType type;
  RouteShape shape;
};

std::vector<RouteColumn> RouteColumns() {
  std::vector<RouteColumn> cols;
  for (PhysType type : {PhysType::kInt32, PhysType::kInt64}) {
    const std::string w = type == PhysType::kInt32 ? "32" : "64";
    cols.push_back({"runs" + w, type, RouteShape::kRuns});
    cols.push_back({"low" + w, type, RouteShape::kLowCard});
    cols.push_back({"rand" + w, type, RouteShape::kRandom});
    cols.push_back({"sorted" + w, type, RouteShape::kSorted});
  }
  return cols;
}

/// Inclusive value domain of a shape; predicate operands are drawn from
/// it with a margin, so some probes miss every row.
std::pair<int64_t, int64_t> RouteDomain(RouteShape shape) {
  switch (shape) {
    case RouteShape::kRuns:
      return {0, 15};
    case RouteShape::kLowCard:
      return {0, 11};
    case RouteShape::kRandom:
      return {-500000, 500000};
    case RouteShape::kSorted:
      return {0, static_cast<int64_t>(kRows / 4)};
  }
  return {0, 0};
}

/// "t<i>", a word of the route table's TEXT column.
std::string TagWord(uint64_t i) {
  std::string w = "t";
  w += std::to_string(i);
  return w;
}

TablePtr RouteTable(uint64_t seed) {
  std::vector<ColumnDef> schema;
  std::vector<BatPtr> bats;
  Rng rng(seed);
  for (const RouteColumn& c : RouteColumns()) {
    const auto [lo, hi] = RouteDomain(c.shape);
    std::vector<int64_t> vals(kRows);
    int64_t run_value = 0;
    size_t run_left = 0;
    for (size_t i = 0; i < kRows; ++i) {
      switch (c.shape) {
        case RouteShape::kRuns:
          if (run_left == 0) {
            run_value = rng.UniformRange(lo, hi);
            run_left = 1 + rng.Uniform(400);
          }
          --run_left;
          vals[i] = run_value;
          break;
        case RouteShape::kLowCard:
        case RouteShape::kRandom:
          vals[i] = rng.UniformRange(lo, hi);
          break;
        case RouteShape::kSorted:
          vals[i] = static_cast<int64_t>(i / 4);
          break;
      }
    }
    BatPtr b = Bat::New(c.type);
    b->Resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      if (c.type == PhysType::kInt32) {
        b->MutableTailData<int32_t>()[i] = static_cast<int32_t>(vals[i]);
      } else {
        b->MutableTailData<int64_t>()[i] = vals[i];
      }
    }
    b->mutable_props().sorted = c.shape == RouteShape::kSorted;
    schema.push_back({c.name, c.type});
    bats.push_back(b);
  }
  BatPtr tag = Bat::NewString(nullptr);
  for (size_t i = 0; i < kRows; ++i) {
    tag->AppendString(TagWord(rng.Uniform(25)));
  }
  schema.push_back({"tag", PhysType::kStr});
  bats.push_back(tag);
  auto t = Table::FromColumns("routes", schema, bats);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

struct RouteQuery {
  std::string column;
  bool range = false;
  Value v;
  CmpOp op = CmpOp::kEq;
  Value lo, hi;
  bool anti = false;
  std::string what;  ///< readable form for failure messages
};

/// Random theta, range, anti, open-ended and LIKE predicates over the
/// route table's columns.
std::vector<RouteQuery> RandomRouteQueries(uint64_t seed, size_t n) {
  const std::vector<RouteColumn> cols = RouteColumns();
  const CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq,
                        CmpOp::kNe, CmpOp::kGe, CmpOp::kGt};
  const char* kPatterns[] = {"t1%", "%3", "t_", "%", "x%", "t2_"};
  Rng rng(seed * 7919);
  std::vector<RouteQuery> queries;
  for (size_t i = 0; i < n; ++i) {
    RouteQuery q;
    const size_t c = rng.Uniform(cols.size() + 1);
    if (c == cols.size()) {
      q.column = "tag";
      if (rng.Uniform(7) == 0) {
        q.op = CmpOp::kLike;
        q.v = Value::Str(kPatterns[rng.Uniform(6)]);
      } else {
        q.op = kOps[rng.Uniform(6)];
        q.v = Value::Str(TagWord(rng.Uniform(27)));
      }
      q.what = "tag op" + std::to_string(static_cast<int>(q.op)) + " " +
               q.v.AsStr();
      queries.push_back(std::move(q));
      continue;
    }
    q.column = cols[c].name;
    const auto [lo, hi] = RouteDomain(cols[c].shape);
    auto draw = [&, lo = lo, hi = hi] {
      return rng.UniformRange(lo - 2, hi + 2);
    };
    const uint64_t kind = rng.Uniform(4);
    if (kind == 0) {
      q.op = kOps[rng.Uniform(6)];
      q.v = Value::Int(draw());
      q.what = q.column + " op" + std::to_string(static_cast<int>(q.op)) +
               " " + std::to_string(q.v.AsInt());
    } else {
      q.range = true;
      int64_t a = draw(), b = draw();
      if (a > b) std::swap(a, b);
      q.lo = Value::Int(a);
      q.hi = Value::Int(b);
      q.anti = kind == 2;
      if (kind == 3) (rng.Uniform(2) == 0 ? q.lo : q.hi) = Value::Nil();
      q.what = q.column + (q.anti ? " not in [" : " in [") +
               (q.lo.is_nil() ? "-inf" : std::to_string(a)) + ", " +
               (q.hi.is_nil() ? "+inf" : std::to_string(b)) + "]";
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// What RunRoute returns for the selection.
enum class RouteOut {
  kPayload,       ///< the projected PFOR payload column
  kWithSelected,  ///< the payload and the projected selected column
  kAggregates,    ///< COUNT, SUM(payload) and, for an int column, SUM(col)
};

/// bind → select over the live candidates → the `out` columns.
std::string RunRoute(Catalog* catalog, const RouteQuery& q,
                     const parallel::ExecContext& ctx,
                     RouteOut out = RouteOut::kPayload) {
  mal::Program p;
  const int col = p.Bind("routes", q.column);
  const int cands = p.BindCandidates("routes");
  const int sel = q.range ? p.RangeSelect(col, cands, q.lo, q.hi, q.anti)
                          : p.ThetaSelect(col, cands, q.v, q.op);
  const int payload_col = p.Project(sel, p.Bind("routes", "rand64"));
  if (out == RouteOut::kAggregates) {
    p.Result(p.Aggr(mal::OpCode::kAggrCount, sel), "count");
    p.Result(p.Aggr(mal::OpCode::kAggrSum, payload_col), "sum_rand64");
    if (q.column != "tag") {
      p.Result(p.Aggr(mal::OpCode::kAggrSum, p.Project(sel, col)), "sum");
    }
  } else {
    p.Result(payload_col, "rand64");
    if (out == RouteOut::kWithSelected) {
      p.Result(p.Project(sel, col), q.column);
    }
  }
  mal::Interpreter interp(catalog, nullptr, ctx);
  auto r = interp.Run(p);
  EXPECT_TRUE(r.ok()) << q.what << ": " << r.status().ToString();
  if (!r.ok()) return "";
  auto payload = EncodeResult(*r);
  EXPECT_TRUE(payload.ok()) << q.what;
  return payload.ok() ? *payload : "";
}

/// `n` random route-table rows as one INSERT statement, drawn from the
/// same domains as the table (so the random predicates hit them); the
/// tag words include two the main image never holds.
std::string RandomRouteInsert(Rng* rng, size_t n) {
  std::string sql = "INSERT INTO routes VALUES ";
  for (size_t i = 0; i < n; ++i) {
    sql += i == 0 ? "(" : ", (";
    for (const RouteColumn& c : RouteColumns()) {
      const auto [lo, hi] = RouteDomain(c.shape);
      sql += std::to_string(rng->UniformRange(lo, hi)) + ", ";
    }
    sql += "'" + TagWord(rng->Uniform(27)) + "')";
  }
  return sql;
}

std::vector<uint64_t> KernelStatsSince(const compress::KernelStats& before) {
  const compress::KernelStats now = compress::GetKernelStats();
  return {now.selects_direct - before.selects_direct,
          now.selects_fallback - before.selects_fallback,
          now.aggrs_direct - before.aggrs_direct,
          now.aggrs_fallback - before.aggrs_fallback,
          now.project_bounded - before.project_bounded,
          now.project_bounded_bytes - before.project_bounded_bytes,
          now.project_full - before.project_full};
}

/// Every select route agrees: an uncompressed oracle, the compressed
/// table with no scheduler, and the compressed table through a scheduler
/// at pools 1 and 4 — first with no deltas, then with rows pending.
/// Results must be byte-identical on the wire, and without deltas a
/// query's KernelStats delta must not depend on the scheduler. The stats
/// are process-wide, so every query runs serially.
///
/// The pending arm commits several INSERT batches whose rows hit the
/// predicates (the oracle receives them too), adds TEXT `=`/LIKE probes
/// for words only the delta holds and COUNT/SUM over projected
/// candidates, and keeps another transaction's INSERT open — the
/// default snapshot must not see that tail. It checks the whole random
/// mix with a dense visible prefix, then the first half of it after a
/// DELETE, and again after CHECKPOINTing the compressed table (folding
/// the deltas into the merged image).
TEST(CompressedKernelTest, SeededSelectRoutesAgreeAcrossEngines) {
  scan::SharedScanConfig config;
  config.chunk_bytes = kChunk;  // floors every width to one-morsel chunks
  config.min_share_rows = kChunk;
  parallel::TaskPool pool1(1), pool4(4);
  const compress::KernelStats start = compress::GetKernelStats();

  for (uint64_t seed : {1, 2, 3}) {
    const std::string dir =
        ::testing::TempDir() + "/mammoth_routes_" + std::to_string(seed);
    fs::remove_all(dir);
    sql::Engine oracle, comp;
    auto db = wal::OpenDatabase(dir, &comp);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(oracle.catalog()->Register(RouteTable(seed)).ok());
    ASSERT_TRUE(comp.catalog()->Register(RouteTable(seed)).ok());
    ASSERT_TRUE(comp.Execute("ALTER TABLE routes COMPRESS").ok());
    std::vector<RouteQuery> queries = RandomRouteQueries(seed, 40);

    for (const RouteQuery& q : queries) {
      const std::string want =
          RunRoute(oracle.catalog(), q, parallel::ExecContext::Serial());
      compress::KernelStats before = compress::GetKernelStats();
      EXPECT_EQ(RunRoute(comp.catalog(), q, parallel::ExecContext::Serial()),
                want)
          << q.what;
      const std::vector<uint64_t> unrouted = KernelStatsSince(before);
      for (parallel::TaskPool* pool : {&pool1, &pool4}) {
        scan::SharedScanScheduler sched(config);
        const parallel::ExecContext ctx =
            parallel::ExecContext(pool).WithSharedScans(&sched);
        before = compress::GetKernelStats();
        EXPECT_EQ(RunRoute(comp.catalog(), q, ctx), want)
            << q.what << " pool " << pool->threads();
        EXPECT_EQ(KernelStatsSince(before), unrouted)
            << q.what << " pool " << pool->threads();
      }
    }

    // --- Pending arm ------------------------------------------------------
    // The first pending phase runs the whole random mix; the later two run
    // its first half, which keeps the sanitizer runs short. Every phase
    // adds TEXT probes for words only the delta holds.
    const std::pair<CmpOp, const char*> kTagProbes[] = {
        {CmpOp::kEq, "t4"},   {CmpOp::kEq, "t25"},  {CmpOp::kEq, "t26"},
        {CmpOp::kLike, "t2%"}, {CmpOp::kLike, "%6"}};
    std::vector<RouteQuery> half(queries.begin(),
                                 queries.begin() + queries.size() / 2);
    for (const auto& [op, word] : kTagProbes) {
      RouteQuery q;
      q.column = "tag";
      q.op = op;
      q.v = Value::Str(word);
      q.what = std::string("tag probe ") + word;
      queries.push_back(q);
      half.push_back(std::move(q));
    }
    auto both = [&](const std::string& sql) {
      ASSERT_TRUE(oracle.Execute(sql).ok()) << sql;
      ASSERT_TRUE(comp.Execute(sql).ok()) << sql;
    };
    // Every route over the pending state equals the oracle.
    auto check = [&](const std::vector<RouteQuery>& mix,
                     const std::string& phase) {
      for (const RouteQuery& q : mix) {
        const std::string want =
            RunRoute(oracle.catalog(), q, parallel::ExecContext::Serial());
        const std::string want_aggr =
            RunRoute(oracle.catalog(), q, parallel::ExecContext::Serial(),
                     RouteOut::kAggregates);
        EXPECT_EQ(
            RunRoute(comp.catalog(), q, parallel::ExecContext::Serial()),
            want)
            << q.what << " (" << phase << ")";
        EXPECT_EQ(RunRoute(comp.catalog(), q, parallel::ExecContext::Serial(),
                           RouteOut::kAggregates),
                  want_aggr)
            << q.what << " (" << phase << ", aggregates)";
        for (parallel::TaskPool* pool : {&pool1, &pool4}) {
          scan::SharedScanScheduler sched(config);
          const parallel::ExecContext ctx =
              parallel::ExecContext(pool).WithSharedScans(&sched);
          EXPECT_EQ(RunRoute(comp.catalog(), q, ctx), want)
              << q.what << " (" << phase << ", pool " << pool->threads()
              << ")";
          EXPECT_EQ(RunRoute(comp.catalog(), q, ctx, RouteOut::kAggregates),
                    want_aggr)
              << q.what << " (" << phase << ", aggregates, pool "
              << pool->threads() << ")";
        }
      }
    };
    // An open transaction's INSERT on the compressed table only: its rows
    // are the delta tail, invisible to the default snapshot.
    Rng rng(seed * 31 + 7);
    sql::SessionPtr writer = comp.CreateSession();
    auto open_tail = [&] {
      ASSERT_TRUE(comp.ExecuteSession(writer, "BEGIN").ok());
      ASSERT_TRUE(
          comp.ExecuteSession(writer, RandomRouteInsert(&rng, 30)).ok());
    };

    for (int batch = 0; batch < 3; ++batch) {
      both(RandomRouteInsert(&rng, 40));
    }
    open_tail();
    auto table = comp.catalog()->Get("routes");
    ASSERT_TRUE(table.ok());
    ASSERT_EQ((*table)->PendingInsertCount(), 150u);
    const compress::KernelStats pending_start = compress::GetKernelStats();
    check(queries, "pending inserts, open tail");
    ASSERT_TRUE(comp.ExecuteSession(writer, "ROLLBACK").ok());

    both("DELETE FROM routes WHERE low32 = 3");
    open_tail();
    check(half, "pending inserts and deletes, open tail");
    EXPECT_GT(KernelStatsSince(pending_start)[0], 0u)
        << "no select ran in code space while rows were pending";
    ASSERT_TRUE(comp.ExecuteSession(writer, "ROLLBACK").ok());

    ASSERT_TRUE(comp.Execute("CHECKPOINT").ok());
    table = comp.catalog()->Get("routes");
    ASSERT_TRUE(table.ok());
    ASSERT_EQ((*table)->PendingInsertCount(), 0u);
    ASSERT_EQ((*table)->DeletedCount(), 0u);
    check(half, "after checkpoint");
    db->wal.reset();
    fs::remove_all(dir);
  }
  // The mix reached both sides of the route.
  const std::vector<uint64_t> total = KernelStatsSince(start);
  EXPECT_GT(total[0], 0u) << "no select ran in code space";
  EXPECT_GT(total[1], 0u) << "no select decoded";
}

/// A select leaves its slot compressed on every route, so a later
/// projection of the same slot counts the same project stats with and
/// without a scheduler — whether the select binary-searched a sorted
/// column or decoded an unsorted one chunk by chunk.
TEST(CompressedKernelTest, ProjectAfterDecodingSelectCountsAlikeOnEveryRoute) {
  scan::SharedScanConfig config;
  config.chunk_bytes = kChunk;
  config.min_share_rows = kChunk;
  sql::Engine comp;
  ASSERT_TRUE(comp.catalog()->Register(RouteTable(1)).ok());
  ASSERT_TRUE(comp.Execute("ALTER TABLE routes COMPRESS").ok());
  RouteQuery sorted_range;
  sorted_range.column = "sorted32";
  sorted_range.range = true;
  sorted_range.lo = Value::Int(4000);
  sorted_range.hi = Value::Int(11000);
  RouteQuery random_ne;
  random_ne.column = "rand32";
  random_ne.v = Value::Int(17);
  random_ne.op = CmpOp::kNe;
  for (const RouteQuery& q : {sorted_range, random_ne}) {
    compress::KernelStats before = compress::GetKernelStats();
    const std::string want = RunRoute(
        comp.catalog(), q, parallel::ExecContext::Serial(),
        RouteOut::kWithSelected);
    const std::vector<uint64_t> unrouted = KernelStatsSince(before);
    const bool sorted = q.column == sorted_range.column;
    EXPECT_EQ(unrouted[0], sorted ? 1u : 0u)
        << q.column << ": the sorted select binary-searched";
    EXPECT_EQ(unrouted[1], sorted ? 0u : 1u)
        << q.column << ": the unsorted select decoded";
    EXPECT_EQ(unrouted[6], 0u) << q.column << ": nothing decoded whole";
    scan::SharedScanScheduler sched(config);
    before = compress::GetKernelStats();
    EXPECT_EQ(RunRoute(comp.catalog(), q,
                       parallel::ExecContext::Serial().WithSharedScans(&sched),
                       RouteOut::kWithSelected),
              want);
    EXPECT_EQ(KernelStatsSince(before), unrouted) << q.column;
  }
}

std::map<std::string, int64_t> StatusCounters(Client* client) {
  auto r = client->Query("SERVER STATUS");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::map<std::string, int64_t> counters;
  for (size_t i = 0; i < r->RowCount(); ++i) {
    counters[std::string(r->columns[0]->StringAt(i))] =
        r->columns[1]->ValueAt<int64_t>(i);
  }
  return counters;
}

TEST(CompressedKernelTest, WireStringResultsBitIdenticalWithKernelCounters) {
  const std::vector<std::string> expected = PlainLogEncodings();

  ServerConfig config;
  config.port = 0;
  auto server = std::make_unique<Server>(config);
  ASSERT_TRUE(server->engine()->catalog()->Register(LogsTable()).ok());
  ASSERT_TRUE(server->engine()->Execute("ALTER TABLE logs COMPRESS").ok());
  ASSERT_TRUE(server->Start().ok());

  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (size_t q = 0; q < StringQueries().size(); ++q) {
    auto remote = client->Query(StringQueries()[q]);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto encoded = EncodeResult(*remote);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(*encoded, expected[q]) << StringQueries()[q];
  }

  auto counters = StatusCounters(&*client);
  // The compressed-execution rows joined the frozen status contract.
  for (const char* key :
       {"recycler_compressed_bytes", "compressed_kernel_selects",
        "compressed_kernel_select_fallbacks", "compressed_kernel_aggrs",
        "compressed_kernel_aggr_fallbacks", "compressed_project_bounded",
        "compressed_project_full", "compressed_cache_bytes"}) {
    EXPECT_EQ(counters.count(key), 1u) << key;
  }
  EXPECT_GT(counters["compressed_kernel_selects"], 0);
  EXPECT_GT(counters["compressed_kernel_aggrs"], 0);

  client->Close();
  server->Stop();
}

// ----------------------------------------------------- bounded project --

TEST(CompressedKernelTest, ProjectDecodesOnlyTheTouchedRangeWhenDense) {
  BatPtr col = LowCardI32(200000);
  for (const Codec codec :
       {Codec::kPfor, Codec::kPforDelta, Codec::kPdict, Codec::kRle}) {
    const std::string what = compress::CodecName(codec);
    auto comp_r = CompressedBat::Compress(col, codec);
    ASSERT_TRUE(comp_r.ok()) << what;
    auto comp = std::make_shared<const CompressedBat>(*std::move(comp_r));
    const size_t held = comp->IndexBytes();

    const auto before = compress::GetKernelStats();
    BatPtr dense = Bat::NewDense(/*tseqbase=*/70000, /*count=*/600);
    auto got = compress::CompressedProject(dense, comp);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    auto want = algebra::Project(dense, col, parallel::ExecContext::Serial());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ((*got)->Count(), (*want)->Count()) << what;
    for (size_t i = 0; i < (*want)->Count(); ++i) {
      ASSERT_EQ((*got)->ValueAt<int32_t>(i), (*want)->ValueAt<int32_t>(i))
          << what << " at " << i;
    }
    const auto mid = compress::GetKernelStats();
    EXPECT_GT(mid.project_bounded, before.project_bounded) << what;
    EXPECT_GT(mid.project_bounded_bytes, before.project_bounded_bytes)
        << what;

    // An arbitrary (unsorted, scattered) OID list gathers its rows too:
    // no whole-column decode, and nothing new is held by the column.
    BatPtr scattered = Bat::New(PhysType::kOid);
    for (Oid o : {Oid{3}, Oid{100000}, Oid{199999}, Oid{7}, Oid{128},
                  Oid{127}, Oid{4096}}) {
      scattered->Append<Oid>(o);
    }
    scattered->set_hseqbase(5);
    auto got2 = compress::CompressedProject(scattered, comp);
    ASSERT_TRUE(got2.ok()) << what;
    auto want2 =
        algebra::Project(scattered, col, parallel::ExecContext::Serial());
    ASSERT_TRUE(want2.ok());
    ASSERT_EQ((*got2)->Count(), (*want2)->Count()) << what;
    EXPECT_EQ((*got2)->hseqbase(), (*want2)->hseqbase()) << what;
    for (size_t i = 0; i < (*want2)->Count(); ++i) {
      ASSERT_EQ((*got2)->ValueAt<int32_t>(i), (*want2)->ValueAt<int32_t>(i))
          << what << " at " << i;
    }
    const auto after = compress::GetKernelStats();
    EXPECT_EQ(after.project_full, before.project_full) << what;
    EXPECT_GT(after.project_bounded, mid.project_bounded) << what;
    EXPECT_EQ(comp->IndexBytes(), held) << what;

    // A row beyond the column is the plain kernel's OutOfRange.
    scattered->Append<Oid>(Oid{200000});
    auto beyond = compress::CompressedProject(scattered, comp);
    ASSERT_FALSE(beyond.ok()) << what;
    EXPECT_EQ(beyond.status().code(), StatusCode::kOutOfRange) << what;
  }
}

// -------------------------------------------------- recycler economics --

TEST(CompressedKernelTest, RecyclerChargesCompressedFootprint) {
  BatPtr col = RunHeavyI32(100000);
  auto comp_r = CompressedBat::Compress(col, Codec::kRle);
  ASSERT_TRUE(comp_r.ok());
  auto comp = std::make_shared<const CompressedBat>(*std::move(comp_r));
  ASSERT_LT(comp->CompressedBytes(), comp->LogicalBytes());

  recycle::Recycler rec(size_t{1} << 20);
  std::vector<recycle::CachedVal> outs;
  outs.push_back({nullptr, comp, Value()});
  rec.Insert(42, std::move(outs), 0.01);

  auto st = rec.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.compressed_bytes, comp->CompressedBytes());
  // Admission charged the compressed footprint (plus the fixed per-entry
  // bookkeeping overhead), not the decoded bytes.
  EXPECT_EQ(st.bytes, st.compressed_bytes + 64);
  EXPECT_LT(st.bytes, comp->LogicalBytes());

  std::vector<recycle::CachedVal> got;
  ASSERT_TRUE(rec.Lookup(42, &got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].cbat.get(), comp.get());
  EXPECT_EQ(got[0].bat, nullptr);

  rec.Clear();
  EXPECT_EQ(rec.stats().compressed_bytes, 0u);
  EXPECT_EQ(rec.stats().bytes, 0u);
}

TEST(CompressedKernelTest, RecycledCompressedResultsServeRepeatedQueries) {
  sql::Engine engine;
  ASSERT_TRUE(engine.catalog()->Register(LogsTable()).ok());
  ASSERT_TRUE(engine.Execute("ALTER TABLE logs COMPRESS").ok());
  recycle::Recycler rec(size_t{64} << 20);
  engine.AttachRecycler(&rec);

  const std::string q = "SELECT SUM(grp), MIN(grp) FROM logs";
  auto first = engine.Execute(q, parallel::ExecContext::Serial());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = engine.Execute(q, parallel::ExecContext::Serial());
  ASSERT_TRUE(second.ok());
  auto e1 = EncodeResult(*first);
  auto e2 = EncodeResult(*second);
  ASSERT_TRUE(e1.ok() && e2.ok());
  EXPECT_EQ(*e1, *e2);

  const auto st = rec.stats();
  EXPECT_GT(st.hits, 0u);
  // The cached pass-through of the compressed column was admitted at its
  // compressed footprint.
  EXPECT_GT(st.compressed_bytes, 0u);
  EXPECT_LE(st.compressed_bytes, st.bytes);
}

// --------------------------------------------- persistence + recovery --

class CompressedPersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/mammoth_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CompressedPersistTest, StringDictSurvivesSaveLoadRoundTrip) {
  sql::Engine engine;
  ASSERT_TRUE(engine.catalog()->Register(LogsTable()).ok());
  ASSERT_TRUE(engine.Execute("ALTER TABLE logs COMPRESS").ok());
  auto t = engine.catalog()->Get("logs");
  ASSERT_TRUE(t.ok());
  ASSERT_NE((*t)->StringDictColumn(3), nullptr);

  ASSERT_TRUE(SaveCatalog(*engine.catalog(), dir_).ok());
  // The manifest persists the dictionary image, not a plain string BAT.
  EXPECT_TRUE(fs::exists(dir_ + "/logs/col_3.sdict"));
  EXPECT_FALSE(fs::exists(dir_ + "/logs/col_3.mbat"));

  auto loaded = LoadCatalog(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(wal::CompareCatalogs(*engine.catalog(), **loaded).ok());
  auto lt = (*loaded)->Get("logs");
  ASSERT_TRUE(lt.ok());
  EXPECT_NE((*lt)->StringDictColumn(3), nullptr);

  // Queries over the reloaded catalog stay bit-identical.
  sql::Engine reloaded;
  for (const auto& name : (*loaded)->TableNames()) {
    auto lt2 = (*loaded)->Get(name);
    ASSERT_TRUE(lt2.ok());
    ASSERT_TRUE(reloaded.catalog()->Register(*lt2).ok());
  }
  for (const std::string& q : StringQueries()) {
    auto a = engine.Execute(q, parallel::ExecContext::Serial());
    auto b = reloaded.Execute(q, parallel::ExecContext::Serial());
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    auto ea = EncodeResult(*a);
    auto eb = EncodeResult(*b);
    ASSERT_TRUE(ea.ok() && eb.ok());
    EXPECT_EQ(*ea, *eb) << q;
  }
}

TEST_F(CompressedPersistTest, StringDictSurvivesCheckpointKillRecover) {
  std::string expect_q3;
  const std::string probe = "SELECT id FROM logs WHERE tag = 'w3'";
  {
    sql::Engine engine;
    auto db = wal::OpenDatabase(dir_, &engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(
        engine.Execute("CREATE TABLE logs (id INT, tag TEXT) COMPRESSED")
            .ok());
    int id = 0;
    for (int stmt = 0; stmt < 12; ++stmt) {
      std::string ins = "INSERT INTO logs VALUES ";
      for (int r = 0; r < 50; ++r, ++id) {
        if (r > 0) ins += ", ";
        ins += "(" + std::to_string(id) + ", 'w" + std::to_string(id % 10) +
               "')";
      }
      ASSERT_TRUE(engine.Execute(ins).ok());
    }
    ASSERT_TRUE(engine.Execute("CHECKPOINT").ok());

    // The checkpoint merged deltas and encoded the dictionary.
    auto t = engine.catalog()->Get("logs");
    ASSERT_TRUE(t.ok());
    EXPECT_NE((*t)->StringDictColumn(1), nullptr);

    // Post-checkpoint tail, replayed from the log on recovery.
    ASSERT_TRUE(
        engine.Execute("INSERT INTO logs VALUES (600, 'w3'), (601, 'w4')")
            .ok());
    auto r = engine.Execute(probe, parallel::ExecContext::Serial());
    ASSERT_TRUE(r.ok());
    auto enc = EncodeResult(*r);
    ASSERT_TRUE(enc.ok());
    expect_q3 = *enc;
    db->wal.reset();  // "kill": drop the log handle, keep the files
  }

  sql::Engine recovered;
  auto db2 = wal::OpenDatabase(dir_, &recovered);
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_FALSE(db2->info.snapshot_dir.empty());

  auto t = recovered.catalog()->Get("logs");
  ASSERT_TRUE(t.ok());
  // The dictionary came back from the snapshot's .sdict image.
  EXPECT_NE((*t)->StringDictColumn(1), nullptr);

  auto r = recovered.Execute(probe, parallel::ExecContext::Serial());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto enc = EncodeResult(*r);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(*enc, expect_q3);

  // The recovered table still accepts DML and re-encodes at checkpoint.
  ASSERT_TRUE(
      recovered.Execute("INSERT INTO logs VALUES (700, 'w7')").ok());
  ASSERT_TRUE(recovered.Execute("CHECKPOINT").ok());
  auto count =
      recovered.Execute("SELECT COUNT(*) FROM logs WHERE tag = 'w7'");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->columns[0]->ValueAt<int64_t>(0), 61);
}

}  // namespace
}  // namespace mammoth
