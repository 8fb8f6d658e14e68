#include "core/select.h"

#include <algorithm>
#include <limits>

#include "core/candidates.h"
#include "core/dispatch.h"
#include "parallel/stitch.h"

namespace mammoth::algebra {

namespace {

using parallel::ExecContext;
using parallel::MorselCollector;
using parallel::TaskPool;

/// Parallel candidate scan: each worker filters its morsels into a private
/// buffer through `emit(sink, pos_begin, pos_end)`; the runs are stitched
/// back in morsel order, so the output equals the serial left-to-right scan
/// exactly. Returns false when the range is too small (or the context
/// serial), in which case the caller runs its serial loop.
template <typename EmitFn>
bool ParallelScan(const ExecContext& ctx, size_t n, BatPtr* out,
                  const EmitFn& emit) {
  constexpr size_t kGrain = TaskPool::kDefaultGrain;
  if (ctx.threads() <= 1 || n <= kGrain * 2) return false;
  MorselCollector<Oid> collect(ctx.threads(), n, kGrain);
  Status s = ctx.ParallelFor(
      n, kGrain, [&](size_t begin, size_t end, int worker) {
        auto sink = collect.BeginMorsel(begin, worker);
        emit(sink, begin, end);
        return Status::OK();
      });
  MAMMOTH_CHECK(s.ok(), "select scan cannot fail");
  BatPtr r = Bat::New(PhysType::kOid);
  r->Resize(collect.Total());
  collect.Stitch(r->MutableTailData<Oid>());
  StampSelectResult(r);
  *out = std::move(r);
  return true;
}

/// Scan select over numeric tails. One instantiation per element type; the
/// comparison op stays a parameter but the loop body is branch-predictable
/// (op is loop-invariant).
template <typename T>
BatPtr ScanThetaSelect(const Bat& b, const Bat* cands, T v, CmpOp op,
                       const ExecContext& ctx) {
  CandidateReader cr(cands, &b);
  const T* tail = b.TailData<T>();
  const Oid hseq = b.hseqbase();
  const size_t n = cr.size();

  BatPtr parallel_result;
  const bool went_parallel = ParallelScan(
      ctx, n, &parallel_result,
      [&](MorselCollector<Oid>::Sink& sink, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const size_t pos = cr.PositionAt(i);
          if (ApplyCmp(op, tail[pos], v)) sink.Append(hseq + pos);
        }
      });
  if (went_parallel) return parallel_result;

  BatPtr r = Bat::New(PhysType::kOid);
  r->Reserve(n / 4 + 16);
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = cr.PositionAt(i);
    if (ApplyCmp(op, tail[pos], v)) r->Append<Oid>(hseq + pos);
  }
  StampSelectResult(r);
  return r;
}

/// Binary-search select over a sorted numeric tail with full candidates:
/// O(log n) and a dense (payload-free) result.
template <typename T>
BatPtr SortedRangeSelect(const Bat& b, T lo, T hi, bool lo_incl,
                         bool hi_incl) {
  const T* tail = b.TailData<T>();
  const size_t n = b.Count();
  const T* first = lo_incl ? std::lower_bound(tail, tail + n, lo)
                           : std::upper_bound(tail, tail + n, lo);
  const T* last = hi_incl ? std::upper_bound(tail, tail + n, hi)
                          : std::lower_bound(tail, tail + n, hi);
  if (last < first) last = first;
  const size_t begin = static_cast<size_t>(first - tail);
  const size_t count = static_cast<size_t>(last - first);
  return Bat::NewDense(b.hseqbase() + begin, count);
}

template <typename T>
BatPtr ScanRangeSelect(const Bat& b, const Bat* cands, T lo, T hi,
                       bool lo_incl, bool hi_incl, bool has_lo, bool has_hi,
                       bool anti, const ExecContext& ctx) {
  CandidateReader cr(cands, &b);
  const T* tail = b.TailData<T>();
  const Oid hseq = b.hseqbase();
  const size_t n = cr.size();
  const auto keep = [&](T x) {
    bool in = true;
    if (has_lo) in = lo_incl ? (x >= lo) : (x > lo);
    if (in && has_hi) in = hi_incl ? (x <= hi) : (x < hi);
    return in != anti;
  };

  BatPtr parallel_result;
  const bool went_parallel = ParallelScan(
      ctx, n, &parallel_result,
      [&](MorselCollector<Oid>::Sink& sink, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const size_t pos = cr.PositionAt(i);
          if (keep(tail[pos])) sink.Append(hseq + pos);
        }
      });
  if (went_parallel) return parallel_result;

  BatPtr r = Bat::New(PhysType::kOid);
  r->Reserve(n / 4 + 16);
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = cr.PositionAt(i);
    if (keep(tail[pos])) r->Append<Oid>(hseq + pos);
  }
  StampSelectResult(r);
  return r;
}

/// String theta-select. Equality exploits heap interning (string equality
/// becomes offset equality); ordering falls back to lexicographic compare.
/// Stays serial: the ordered cases chase heap pointers, and the eq case is
/// already a plain offset-compare scan.
BatPtr StringThetaSelect(const Bat& b, const Bat* cands,
                         const std::string& v, CmpOp op) {
  CandidateReader cr(cands, &b);
  const uint64_t* offs = b.TailData<uint64_t>();
  const Oid hseq = b.hseqbase();
  const StringHeap& heap = *b.heap();
  BatPtr r = Bat::New(PhysType::kOid);
  const size_t n = cr.size();

  if (op == CmpOp::kEq || op == CmpOp::kNe) {
    uint64_t target = 0;
    const bool present = heap.Find(v, &target);
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = cr.PositionAt(i);
      const bool eq = present && offs[pos] == target;
      if (eq == (op == CmpOp::kEq)) r->Append<Oid>(hseq + pos);
    }
  } else {
    const std::string_view vv = v;
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = cr.PositionAt(i);
      const std::string_view s = heap.Get(offs[pos]);
      bool keep = false;
      switch (op) {
        case CmpOp::kLt:
          keep = s < vv;
          break;
        case CmpOp::kLe:
          keep = s <= vv;
          break;
        case CmpOp::kGe:
          keep = s >= vv;
          break;
        case CmpOp::kGt:
          keep = s > vv;
          break;
        case CmpOp::kLike:
          keep = LikeMatch(s, vv);
          break;
        default:
          break;
      }
      if (keep) r->Append<Oid>(hseq + pos);
    }
  }
  StampSelectResult(r);
  return r;
}

}  // namespace

void StampSelectResult(const BatPtr& r) {
  r->mutable_props().sorted = true;
  r->mutable_props().key = true;
  r->mutable_props().revsorted = r->Count() <= 1;
}

Result<BatPtr> ThetaSelect(const BatPtr& b, const BatPtr& cands,
                           const Value& v, CmpOp op,
                           const parallel::ExecContext& ctx) {
  if (b == nullptr) return Status::InvalidArgument("select: null input");
  if (b->type() == PhysType::kStr) {
    if (!v.is_str()) {
      return Status::TypeMismatch("select: string column vs non-string value");
    }
    return StringThetaSelect(*b, cands.get(), v.AsStr(), op);
  }
  if (!v.is_numeric()) {
    return Status::TypeMismatch("select: numeric column vs non-numeric value");
  }
  // Sorted fast path for range-shaped ops without candidates.
  if (b->props().sorted && cands == nullptr && !b->IsDenseTail()) {
    return DispatchNumeric(b->type(), [&](auto tag) -> BatPtr {
      using T = typename decltype(tag)::type;
      const T tv = v.As<T>();
      switch (op) {
        case CmpOp::kLt:
          return SortedRangeSelect<T>(*b, std::numeric_limits<T>::lowest(),
                                      tv, true, false);
        case CmpOp::kLe:
          return SortedRangeSelect<T>(*b, std::numeric_limits<T>::lowest(),
                                      tv, true, true);
        case CmpOp::kEq:
          return SortedRangeSelect<T>(*b, tv, tv, true, true);
        case CmpOp::kGe:
          return SortedRangeSelect<T>(*b, tv, std::numeric_limits<T>::max(),
                                      true, true);
        case CmpOp::kGt:
          return SortedRangeSelect<T>(*b, tv, std::numeric_limits<T>::max(),
                                      false, true);
        case CmpOp::kNe:
        default:
          return ScanThetaSelect<T>(*b, cands.get(), tv, op, ctx);
      }
    });
  }
  BatPtr base = b;
  if (b->IsDenseTail()) {
    base = b->Clone();
    base->MaterializeDense();
  }
  return DispatchNumeric(base->type(), [&](auto tag) -> BatPtr {
    using T = typename decltype(tag)::type;
    return ScanThetaSelect<T>(*base, cands.get(), v.As<T>(), op, ctx);
  });
}

Result<BatPtr> RangeSelect(const BatPtr& b, const BatPtr& cands,
                           const Value& lo, const Value& hi, bool lo_incl,
                           bool hi_incl, bool anti,
                           const parallel::ExecContext& ctx) {
  if (b == nullptr) return Status::InvalidArgument("select: null input");
  if (b->type() == PhysType::kStr) {
    return Status::Unimplemented("range select on strings");
  }
  const bool has_lo = !lo.is_nil();
  const bool has_hi = !hi.is_nil();
  if ((has_lo && !lo.is_numeric()) || (has_hi && !hi.is_numeric())) {
    return Status::TypeMismatch("range select: non-numeric bound");
  }
  if (b->props().sorted && cands == nullptr && !anti && !b->IsDenseTail()) {
    return DispatchNumeric(b->type(), [&](auto tag) -> BatPtr {
      using T = typename decltype(tag)::type;
      const T tlo = has_lo ? lo.As<T>() : std::numeric_limits<T>::lowest();
      const T thi = has_hi ? hi.As<T>() : std::numeric_limits<T>::max();
      return SortedRangeSelect<T>(*b, tlo, thi, has_lo ? lo_incl : true,
                                  has_hi ? hi_incl : true);
    });
  }
  BatPtr base = b;
  if (b->IsDenseTail()) {
    base = b->Clone();
    base->MaterializeDense();
  }
  return DispatchNumeric(base->type(), [&](auto tag) -> BatPtr {
    using T = typename decltype(tag)::type;
    const T tlo = has_lo ? lo.As<T>() : T{};
    const T thi = has_hi ? hi.As<T>() : T{};
    return ScanRangeSelect<T>(*base, cands.get(), tlo, thi, lo_incl, hi_incl,
                              has_lo, has_hi, anti, ctx);
  });
}

}  // namespace mammoth::algebra
