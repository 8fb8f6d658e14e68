#include "compress/compressed_kernels.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "compress/bitpack.h"
#include "core/select.h"

namespace mammoth::compress {

namespace {

using algebra::StampSelectResult;

struct Counters {
  std::atomic<uint64_t> selects_direct{0};
  std::atomic<uint64_t> selects_fallback{0};
  std::atomic<uint64_t> aggrs_direct{0};
  std::atomic<uint64_t> aggrs_fallback{0};
  std::atomic<uint64_t> project_bounded{0};
  std::atomic<uint64_t> project_bounded_bytes{0};
  std::atomic<uint64_t> project_full{0};
};

Counters& C() {
  static Counters c;
  return c;
}

bool NumericOperand(const Value& v) { return v.is_numeric(); }

bool CodecSelectable(const CompressedBat& comp) {
  // PFOR and PFOR-DELTA carry no exploitable structure — their only play
  // is decoding, which the fallback does a chunk at a time.
  return comp.codec() == Codec::kRle || comp.codec() == Codec::kPdict;
}

/// Batch grain for code-space scans: fits L1 alongside the output.
constexpr size_t kCodeBatch = 4096;

/// Emits OIDs [hseq+lo, hseq+hi) into r.
void AppendRange(const BatPtr& r, Oid hseq, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) r->Append<Oid>(hseq + i);
}

/// RLE select: walk the run list, test each run's value once, and emit the
/// run's row range. O(runs + matches).
template <typename KeepFn>
Result<BatPtr> RleSelect(const CompressedBat& comp, Oid hseq,
                         const KeepFn& keep) {
  MAMMOTH_ASSIGN_OR_RETURN(const CompressedBat::RleRuns* runs,
                           comp.RunsView());
  BatPtr r = Bat::New(PhysType::kOid);
  for (size_t idx = 0; idx < runs->NumRuns(); ++idx) {
    if (keep(runs->values[idx])) {
      AppendRange(r, hseq, runs->starts[idx], runs->starts[idx + 1]);
    }
  }
  StampSelectResult(r);
  return r;
}

/// The one code-space row loop, shared by PDICT and dictionary strings:
/// unpacks rows [begin, end) of a packed code stream in kCodeBatch
/// batches and keeps row i iff lut[code(i)] is 1. The emit is branch-free
/// (X100-style selection vector): every row writes its OID and the cursor
/// advances by the LUT byte, so the cost does not depend on selectivity.
/// `lut` must cover every code in the stream, which the load-time
/// CodesBelow check guarantees. Cache-line aligned, like UnpackFixed:
/// otherwise the speed of this loop depends on where unrelated code puts
/// it (a 32-byte shift moved perfbench htap `tag_eq` p50 from 1.55 to
/// 2.0 ms).
__attribute__((aligned(64))) BatPtr SelectCodes(
    const uint8_t* codes, uint32_t bits, const std::vector<uint8_t>& lut,
    size_t begin, size_t end, Oid hseq) {
  BatPtr r = Bat::New(PhysType::kOid);
  uint32_t batch[kCodeBatch];
  Oid sel[kCodeBatch];
  for (size_t base = begin; base < end; base += kCodeBatch) {
    const size_t n = std::min(kCodeBatch, end - base);
    UnpackBits(codes, base, n, static_cast<int>(bits), batch);
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      sel[k] = hseq + base + i;
      k += lut[batch[i]];
    }
    r->AppendRaw(sel, k);
  }
  StampSelectResult(r);
  return r;
}

/// PDICT select: evaluate the predicate once per dictionary entry into a
/// per-code LUT, then run the code loop.
template <typename KeepFn>
Result<BatPtr> PdictSelect(const CompressedBat& comp, Oid hseq,
                           const KeepFn& keep) {
  MAMMOTH_ASSIGN_OR_RETURN(CompressedBat::DictView view, comp.PdictView());
  std::vector<uint8_t> lut(view.dsize, 0);
  for (uint32_t c = 0; c < view.dsize; ++c) {
    lut[c] = keep(static_cast<int64_t>(view.dict[c])) ? 1 : 0;
  }
  return SelectCodes(view.codes, view.bits, lut, 0, comp.Count(), hseq);
}

template <typename KeepFn>
Result<BatPtr> SelectDispatch(const CompressedBat& comp, Oid hseq,
                              const KeepFn& keep) {
  switch (comp.codec()) {
    case Codec::kRle:
      return RleSelect(comp, hseq, keep);
    case Codec::kPdict:
      return PdictSelect(comp, hseq, keep);
    default:
      return Status::Unsupported("compressed select: codec has no kernel");
  }
}

/// Builds the narrowed keep() for a theta predicate; `v64` values arrive
/// widened from the run list / dictionary and are narrowed back to the
/// column type, so compares match the plain kernel exactly.
template <typename T>
auto ThetaKeep(const Value& v, CmpOp op) {
  const T tv = v.As<T>();
  return [tv, op](int64_t x) { return ApplyCmp(op, static_cast<T>(x), tv); };
}

/// First row of the sorted column whose value is not before x: >= x, or
/// > x when `after`. A lower_bound / upper_bound over the block maxima,
/// then single-row probes, then one decoded stretch of at most 128 rows.
template <typename T>
Result<size_t> SortedBound(const CompressedBat& comp, T x, bool after) {
  const auto before = [x, after](T v) { return after ? !(x < v) : v < x; };
  size_t lo_blk = 0, hi_blk = comp.NumStatBlocks();
  while (lo_blk < hi_blk) {
    const size_t mid = lo_blk + (hi_blk - lo_blk) / 2;
    if (before(static_cast<T>(comp.StatMax(mid)))) {
      lo_blk = mid + 1;
    } else {
      hi_blk = mid;
    }
  }
  constexpr size_t kStretch = 128;
  size_t lo = lo_blk * CompressedBat::kStatBlockRows;
  size_t hi = std::min(comp.Count(), lo + CompressedBat::kStatBlockRows);
  if (lo >= hi) return comp.Count();
  while (hi - lo > kStretch) {
    const size_t mid = lo + (hi - lo) / 2;
    T v{};
    MAMMOTH_RETURN_IF_ERROR(comp.DecodeRangeRaw(mid, 1, &v));
    if (before(v)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  T stretch[kStretch];
  MAMMOTH_RETURN_IF_ERROR(comp.DecodeRangeRaw(lo, hi - lo, stretch));
  return lo + static_cast<size_t>(
                  std::partition_point(stretch, stretch + (hi - lo), before) -
                  stretch);
}

template <typename T>
auto RangeKeep(const Value& lo, const Value& hi, bool lo_incl, bool hi_incl,
               bool anti) {
  const bool has_lo = !lo.is_nil();
  const bool has_hi = !hi.is_nil();
  const T tlo = has_lo ? lo.As<T>() : T{};
  const T thi = has_hi ? hi.As<T>() : T{};
  return [=](int64_t x64) {
    const T x = static_cast<T>(x64);
    bool in = true;
    if (has_lo) in = lo_incl ? (x >= tlo) : (x > tlo);
    if (in && has_hi) in = hi_incl ? (x <= thi) : (x < thi);
    return in != anti;
  };
}

}  // namespace

bool ThetaSelectableOnCompressed(const CompressedBat& comp, const Value& v,
                                 CmpOp op) {
  return CodecSelectable(comp) && !comp.props().sorted &&
         NumericOperand(v) && op != CmpOp::kLike;
}

bool RangeSelectableOnCompressed(const CompressedBat& comp, const Value& lo,
                                 const Value& hi) {
  const bool lo_ok = lo.is_nil() || lo.is_numeric();
  const bool hi_ok = hi.is_nil() || hi.is_numeric();
  return CodecSelectable(comp) && !comp.props().sorted && lo_ok && hi_ok;
}

bool AggregatableOnCompressed(const CompressedBat& comp) {
  return comp.codec() == Codec::kRle || comp.codec() == Codec::kPdict;
}

Result<BatPtr> CompressedThetaSelect(const CompressedBat& comp,
                                     const Value& v, CmpOp op, Oid hseq) {
  if (!v.is_numeric()) {
    return Status::TypeMismatch("select: numeric column vs non-numeric value");
  }
  if (op == CmpOp::kLike) {
    return Status::TypeMismatch("select: LIKE on numeric column");
  }
  if (comp.type() == PhysType::kInt32) {
    return SelectDispatch(comp, hseq, ThetaKeep<int32_t>(v, op));
  }
  return SelectDispatch(comp, hseq, ThetaKeep<int64_t>(v, op));
}

Result<BatPtr> CompressedRangeSelect(const CompressedBat& comp,
                                     const Value& lo, const Value& hi,
                                     bool lo_incl, bool hi_incl, bool anti,
                                     Oid hseq) {
  if ((!lo.is_nil() && !lo.is_numeric()) ||
      (!hi.is_nil() && !hi.is_numeric())) {
    return Status::TypeMismatch("range select: non-numeric bound");
  }
  if (comp.type() == PhysType::kInt32) {
    return SelectDispatch(comp, hseq,
                          RangeKeep<int32_t>(lo, hi, lo_incl, hi_incl, anti));
  }
  return SelectDispatch(comp, hseq,
                        RangeKeep<int64_t>(lo, hi, lo_incl, hi_incl, anti));
}

Result<BatPtr> CompressedSortedSelect(const CompressedBat& comp,
                                      const Value& lo, const Value& hi,
                                      bool lo_incl, bool hi_incl, bool anti) {
  if ((!lo.is_nil() && !lo.is_numeric()) ||
      (!hi.is_nil() && !hi.is_numeric())) {
    return Status::TypeMismatch("range select: non-numeric bound");
  }
  if (!comp.props().sorted) {
    return Status::Unsupported("sorted select: column is not sorted");
  }
  const size_t n = comp.Count();
  size_t first = 0, last = n;
  const auto bound = [&](const Value& v, bool after) -> Result<size_t> {
    if (comp.type() == PhysType::kInt32) {
      return SortedBound<int32_t>(comp, v.As<int32_t>(), after);
    }
    return SortedBound<int64_t>(comp, v.As<int64_t>(), after);
  };
  if (!lo.is_nil()) {
    MAMMOTH_ASSIGN_OR_RETURN(first, bound(lo, !lo_incl));
  }
  if (!hi.is_nil()) {
    MAMMOTH_ASSIGN_OR_RETURN(last, bound(hi, hi_incl));
  }
  last = std::max(last, first);
  if (!anti) return Bat::NewDense(first, last - first);
  // The rows outside [first, last), materialized as the scan kernel
  // emits them.
  BatPtr r = Bat::New(PhysType::kOid);
  r->Resize(first + (n - last));
  Oid* out = r->MutableTailData<Oid>();
  for (size_t i = 0; i < first; ++i) out[i] = i;
  for (size_t i = last; i < n; ++i) out[first + (i - last)] = i;
  StampSelectResult(r);
  return r;
}

Result<std::vector<uint8_t>> DictStrThetaLut(const StrDict& dict,
                                             const Value& v, CmpOp op) {
  if (!v.is_str()) {
    return Status::TypeMismatch("select: string column vs non-string value");
  }
  const std::string& pat = v.AsStr();
  const uint32_t dsize = dict.dsize();
  std::vector<uint8_t> lut(dsize, 0);
  const auto mark = [&lut](uint32_t lo, uint32_t hi) {
    std::fill(lut.begin() + lo, lut.begin() + hi, 1);
  };
  // The sorted dictionary turns `=`, `<>`, ordered ops and LIKE 'lit%'
  // into code ranges found by binary search, so building the LUT costs
  // no per-word compare; general LIKE evaluates once per distinct word.
  uint32_t code = 0, lo = 0, hi = 0;
  std::string_view prefix;
  switch (op) {
    case CmpOp::kEq:
      if (dict.FindCode(pat, &code)) lut[code] = 1;
      break;
    case CmpOp::kNe:
      mark(0, dsize);
      if (dict.FindCode(pat, &code)) lut[code] = 0;
      break;
    case CmpOp::kLt:
      mark(0, dict.LowerBound(pat));
      break;
    case CmpOp::kLe:
      mark(0, dict.UpperBound(pat));
      break;
    case CmpOp::kGe:
      mark(dict.LowerBound(pat), dsize);
      break;
    case CmpOp::kGt:
      mark(dict.UpperBound(pat), dsize);
      break;
    case CmpOp::kLike:
      if (LikePrefix(pat, &prefix)) {
        dict.PrefixCodeRange(prefix, &lo, &hi);
        mark(lo, hi);
      } else {
        for (uint32_t c = 0; c < dsize; ++c) {
          lut[c] = LikeMatch(dict.Word(c), pat) ? 1 : 0;
        }
      }
      break;
  }
  return lut;
}

Result<std::vector<uint8_t>> DictStrRangeLut(const StrDict& dict,
                                             const Value& lo, const Value& hi,
                                             bool lo_incl, bool hi_incl,
                                             bool anti) {
  if ((!lo.is_nil() && !lo.is_str()) || (!hi.is_nil() && !hi.is_str())) {
    return Status::TypeMismatch("range select: non-string bound");
  }
  // The words inside the range are one code interval of the sorted
  // dictionary; `anti` keeps its complement.
  const uint32_t first =
      lo.is_nil() ? 0
                  : (lo_incl ? dict.LowerBound(lo.AsStr())
                             : dict.UpperBound(lo.AsStr()));
  const uint32_t last =
      hi.is_nil() ? dict.dsize()
                  : (hi_incl ? dict.UpperBound(hi.AsStr())
                             : dict.LowerBound(hi.AsStr()));
  std::vector<uint8_t> lut(dict.dsize(), anti ? 1 : 0);
  if (first < last) {
    std::fill(lut.begin() + first, lut.begin() + last, anti ? 0 : 1);
  }
  return lut;
}

Result<BatPtr> DictStrSelectRange(const StrDict& dict,
                                  const std::vector<uint8_t>& lut,
                                  size_t begin, size_t end, Oid hseq) {
  if (end > dict.Count() || begin > end) {
    return Status::OutOfRange("compressed select: range beyond column");
  }
  return SelectCodes(dict.code_data(), dict.bits(), lut, begin, end, hseq);
}

Result<BatPtr> DictStrSelectCands(const StrDict& dict,
                                  const std::vector<uint8_t>& lut,
                                  const BatPtr& cands, Oid hseq) {
  const size_t n = cands->Count();
  if (cands->IsDenseTail()) {
    const Oid first = cands->tseqbase();
    if (first < hseq) {
      return Status::OutOfRange("compressed select: range beyond column");
    }
    return DictStrSelectRange(dict, lut, first - hseq, first - hseq + n,
                              hseq);
  }
  // One code per candidate, emitted branch-free like SelectCodes.
  const Oid* oids = cands->TailData<Oid>();
  BatPtr r = Bat::New(PhysType::kOid);
  r->Resize(n);
  Oid* out = r->MutableTailData<Oid>();
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const Oid o = oids[i];
    if (o < hseq || o - hseq >= dict.Count()) {
      return Status::OutOfRange("compressed select: candidate beyond column");
    }
    out[k] = o;
    k += lut[dict.CodeAt(o - hseq)];
  }
  r->Resize(k);
  StampSelectResult(r);
  return r;
}

Result<BatPtr> DictStrSelectRange(const StrDict& dict, const Value& v,
                                  CmpOp op, size_t begin, size_t end,
                                  Oid hseq) {
  MAMMOTH_ASSIGN_OR_RETURN(std::vector<uint8_t> lut,
                           DictStrThetaLut(dict, v, op));
  return DictStrSelectRange(dict, lut, begin, end, hseq);
}

Result<BatPtr> CompressedAggrSum(const CompressedBat& comp) {
  // Unsigned fold: two's-complement addition is associative, so
  // value*run_length accumulates to exactly the serial int64 sum.
  uint64_t acc = 0;
  switch (comp.codec()) {
    case Codec::kRle: {
      MAMMOTH_ASSIGN_OR_RETURN(const CompressedBat::RleRuns* runs,
                               comp.RunsView());
      for (size_t i = 0; i < runs->NumRuns(); ++i) {
        const uint64_t len = runs->starts[i + 1] - runs->starts[i];
        acc += static_cast<uint64_t>(runs->values[i]) * len;
      }
      break;
    }
    case Codec::kPdict: {
      MAMMOTH_ASSIGN_OR_RETURN(CompressedBat::DictView view,
                               comp.PdictView());
      std::vector<uint64_t> cnt(std::max<uint32_t>(view.dsize, 1), 0);
      const size_t n = comp.Count();
      uint32_t batch[kCodeBatch];
      for (size_t base = 0; base < n; base += kCodeBatch) {
        const size_t m = std::min(kCodeBatch, n - base);
        UnpackBits(view.codes, base, m, static_cast<int>(view.bits), batch);
        for (size_t i = 0; i < m; ++i) ++cnt[batch[i]];
      }
      for (uint32_t c = 0; c < view.dsize; ++c) {
        acc += static_cast<uint64_t>(
                   static_cast<int64_t>(view.dict[c])) *
               cnt[c];
      }
      break;
    }
    default:
      return Status::Unsupported("compressed sum: codec has no fold");
  }
  BatPtr r = Bat::New(PhysType::kInt64);
  r->Append<int64_t>(static_cast<int64_t>(acc));
  return r;
}

namespace {

template <bool kMin>
Result<BatPtr> CompressedAggrMinMax(const CompressedBat& comp) {
  int64_t acc = comp.type() == PhysType::kInt32
                    ? (kMin ? std::numeric_limits<int32_t>::max()
                            : std::numeric_limits<int32_t>::lowest())
                    : (kMin ? std::numeric_limits<int64_t>::max()
                            : std::numeric_limits<int64_t>::lowest());
  switch (comp.codec()) {
    case Codec::kRle: {
      MAMMOTH_ASSIGN_OR_RETURN(const CompressedBat::RleRuns* runs,
                               comp.RunsView());
      for (int64_t v : runs->values) {
        if (kMin ? v < acc : v > acc) acc = v;
      }
      break;
    }
    case Codec::kPdict: {
      // Every dictionary entry appears in the column at least once by
      // construction, so the fold over the dictionary IS the column fold.
      MAMMOTH_ASSIGN_OR_RETURN(CompressedBat::DictView view,
                               comp.PdictView());
      if (comp.Count() > 0) {
        if (view.sorted) {
          acc = kMin ? view.dict[0] : view.dict[view.dsize - 1];
        } else {
          for (uint32_t c = 0; c < view.dsize; ++c) {
            const int64_t v = view.dict[c];
            if (kMin ? v < acc : v > acc) acc = v;
          }
        }
      }
      break;
    }
    default:
      return Status::Unsupported("compressed min/max: codec has no fold");
  }
  BatPtr r = Bat::New(comp.type());
  if (comp.type() == PhysType::kInt32) {
    r->Append<int32_t>(static_cast<int32_t>(acc));
  } else {
    r->Append<int64_t>(acc);
  }
  return r;
}

}  // namespace

Result<BatPtr> CompressedAggrMin(const CompressedBat& comp) {
  return CompressedAggrMinMax<true>(comp);
}

Result<BatPtr> CompressedAggrMax(const CompressedBat& comp) {
  return CompressedAggrMinMax<false>(comp);
}

KernelStats GetKernelStats() {
  Counters& c = C();
  KernelStats s;
  s.selects_direct = c.selects_direct.load(std::memory_order_relaxed);
  s.selects_fallback = c.selects_fallback.load(std::memory_order_relaxed);
  s.aggrs_direct = c.aggrs_direct.load(std::memory_order_relaxed);
  s.aggrs_fallback = c.aggrs_fallback.load(std::memory_order_relaxed);
  s.project_bounded = c.project_bounded.load(std::memory_order_relaxed);
  s.project_bounded_bytes =
      c.project_bounded_bytes.load(std::memory_order_relaxed);
  s.project_full = c.project_full.load(std::memory_order_relaxed);
  return s;
}

void ResetKernelStats() {
  Counters& c = C();
  c.selects_direct.store(0, std::memory_order_relaxed);
  c.selects_fallback.store(0, std::memory_order_relaxed);
  c.aggrs_direct.store(0, std::memory_order_relaxed);
  c.aggrs_fallback.store(0, std::memory_order_relaxed);
  c.project_bounded.store(0, std::memory_order_relaxed);
  c.project_bounded_bytes.store(0, std::memory_order_relaxed);
  c.project_full.store(0, std::memory_order_relaxed);
}

namespace stats {
void SelectDirect() {
  C().selects_direct.fetch_add(1, std::memory_order_relaxed);
}
void SelectFallback() {
  C().selects_fallback.fetch_add(1, std::memory_order_relaxed);
}
void AggrDirect() {
  C().aggrs_direct.fetch_add(1, std::memory_order_relaxed);
}
void AggrFallback() {
  C().aggrs_fallback.fetch_add(1, std::memory_order_relaxed);
}
void ProjectBounded(uint64_t bytes) {
  C().project_bounded.fetch_add(1, std::memory_order_relaxed);
  C().project_bounded_bytes.fetch_add(bytes, std::memory_order_relaxed);
}
void ProjectFull() {
  C().project_full.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace stats

}  // namespace mammoth::compress
