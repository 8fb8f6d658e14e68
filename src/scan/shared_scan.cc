#include "scan/shared_scan.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "compress/compressed_kernels.h"
#include "core/select.h"
#include "parallel/task_pool.h"

namespace mammoth::scan {

namespace {

/// Whether the predicate can run over the source's compressed
/// representation directly (code-space / run-space), bit-identical to
/// decode-then-kernel.
bool CodeSpacePredicate(const ColumnSource& source, const ScanPredicate& pred) {
  if (source.comp == nullptr) return false;
  return pred.kind == ScanPredicate::Kind::kTheta
             ? compress::ThetaSelectableOnCompressed(*source.comp, pred.v,
                                                     pred.op)
             : compress::RangeSelectableOnCompressed(*source.comp, pred.lo,
                                                     pred.hi);
}

/// Evaluates a code-space-rewritable predicate over the compressed image
/// directly.
Result<BatPtr> EvalCodeSpace(const ColumnSource& source,
                             const ScanPredicate& pred) {
  const size_t n = source.Count();
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return compress::CompressedThetaSelectRange(*source.comp, pred.v, pred.op,
                                                0, n, source.hseqbase);
  }
  return compress::CompressedRangeSelectRange(*source.comp, pred.lo, pred.hi,
                                              true, true, pred.anti, 0, n,
                                              source.hseqbase);
}

/// Whether a compressed source answers the predicate by binary search: a
/// sorted column, under every numeric predicate but LIKE.
bool SortedPredicate(const ColumnSource& source, const ScanPredicate& pred) {
  if (source.comp == nullptr || !source.comp->props().sorted) return false;
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return pred.v.is_numeric() && pred.op != CmpOp::kLike;
  }
  return (pred.lo.is_nil() || pred.lo.is_numeric()) &&
         (pred.hi.is_nil() || pred.hi.is_numeric());
}

/// The binary-search select over a sorted compressed source. A theta
/// predicate maps onto the range it selects in a sorted column; `<>` is
/// the rows outside the `=` range.
Result<BatPtr> EvalSorted(const ColumnSource& source,
                          const ScanPredicate& pred) {
  const compress::CompressedBat& comp = *source.comp;
  if (pred.kind == ScanPredicate::Kind::kRange) {
    return compress::CompressedSortedSelect(comp, pred.lo, pred.hi, true, true,
                                            pred.anti, source.hseqbase);
  }
  const Value none;
  switch (pred.op) {
    case CmpOp::kLt:
    case CmpOp::kLe:
      return compress::CompressedSortedSelect(comp, none, pred.v, true,
                                              pred.op == CmpOp::kLe, false,
                                              source.hseqbase);
    case CmpOp::kGe:
    case CmpOp::kGt:
      return compress::CompressedSortedSelect(comp, pred.v, none,
                                              pred.op == CmpOp::kGe, true,
                                              false, source.hseqbase);
    default:  // kEq, kNe
      return compress::CompressedSortedSelect(comp, pred.v, pred.v, true, true,
                                              pred.op == CmpOp::kNe,
                                              source.hseqbase);
  }
}

/// Concatenates per-chunk select results in chunk order into one stamped
/// OID list.
BatPtr ConcatParts(const std::vector<BatPtr>& parts) {
  size_t total = 0;
  for (const BatPtr& p : parts) total += p->Count();
  BatPtr out = Bat::New(PhysType::kOid);
  out->Resize(total);
  Oid* dst = out->MutableTailData<Oid>();
  for (const BatPtr& p : parts) {
    if (p->Count() == 0) continue;
    std::memcpy(dst, p->TailData<Oid>(), p->Count() * sizeof(Oid));
    dst += p->Count();
  }
  algebra::StampSelectResult(out);
  return out;
}

/// Decode-then-kernel over a compressed source without a code-space or
/// sorted route: each statistics block decodes into a scratch buffer and
/// the stock kernel runs over it, block-parallel under `ctx`, so the
/// column is never decoded whole. Chunk results concatenate in order,
/// which is the whole-column kernel's output.
Result<BatPtr> EvalDecodedChunks(const ColumnSource& source,
                                 const ScanPredicate& pred,
                                 const parallel::ExecContext& ctx) {
  const compress::CompressedBat& comp = *source.comp;
  constexpr size_t kRows = compress::CompressedBat::kStatBlockRows;
  const size_t n = comp.Count();
  std::vector<BatPtr> parts((n + kRows - 1) / kRows);
  MAMMOTH_RETURN_IF_ERROR(ctx.ParallelFor(
      parts.size(), 1, [&](size_t b, size_t e, int) -> Status {
        // Slots of the widest type; every row is written before use.
        auto buf = std::make_unique_for_overwrite<int64_t[]>(kRows);
        for (size_t c = b; c < e; ++c) {
          const size_t begin = c * kRows;
          const size_t end = std::min(n, begin + kRows);
          MAMMOTH_RETURN_IF_ERROR(
              comp.DecodeRangeRaw(begin, end - begin, buf.get()));
          // A view over the scratch rows, headed at the rows' OIDs, with
          // default properties, so the kernel's fast paths match a plain
          // column's.
          BatPtr view = Bat::New(comp.type());
          view->tail().AdoptExternal(buf.get(), end - begin);
          view->set_hseqbase(source.hseqbase + begin);
          MAMMOTH_ASSIGN_OR_RETURN(
              parts[c], RunKernel(view, nullptr, pred,
                                  parallel::ExecContext::Serial()));
        }
        return Status::OK();
      }));
  return ConcatParts(parts);
}

/// The per-code keep LUT of a string predicate over a dictionary.
Result<std::vector<uint8_t>> DictLut(const compress::StrDict& dict,
                                     const ScanPredicate& pred) {
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return compress::DictStrThetaLut(dict, pred.v, pred.op);
  }
  return compress::DictStrRangeLut(dict, pred.lo, pred.hi, true, true,
                                   pred.anti);
}

}  // namespace

Result<BatPtr> RunKernel(const BatPtr& column, const BatPtr& cands,
                         const ScanPredicate& pred,
                         const parallel::ExecContext& ctx) {
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return algebra::ThetaSelect(column, cands, pred.v, pred.op, ctx);
  }
  return algebra::RangeSelect(column, cands, pred.lo, pred.hi, true, true,
                              pred.anti, ctx);
}

Result<BatPtr> RunKernelSource(const ColumnSource& source,
                               const ScanPredicate& pred,
                               const parallel::ExecContext& ctx) {
  if (source.sdict != nullptr) {
    return RunKernelDict(source, nullptr, pred, ctx);
  }
  if (CodeSpacePredicate(source, pred)) {
    compress::stats::SelectDirect();
    return EvalCodeSpace(source, pred);
  }
  if (SortedPredicate(source, pred)) {
    compress::stats::SelectDirect();
    return EvalSorted(source, pred);
  }
  if (source.compressed()) {
    compress::stats::SelectFallback();
    return EvalDecodedChunks(source, pred, ctx);
  }
  return RunKernel(source.bat, nullptr, pred, ctx);
}

Result<BatPtr> RunKernelDict(const ColumnSource& source, const BatPtr& cands,
                             const ScanPredicate& pred,
                             const parallel::ExecContext& ctx) {
  if (source.sdict == nullptr) {
    return Status::InvalidArgument("select: not a dictionary source");
  }
  compress::stats::SelectDirect();
  MAMMOTH_ASSIGN_OR_RETURN(std::vector<uint8_t> lut,
                           DictLut(*source.sdict, pred));
  if (cands != nullptr) {
    return compress::DictStrSelectCands(*source.sdict, lut, cands,
                                        source.hseqbase);
  }
  // Every row: the code loop runs morsel by morsel under `ctx`, and the
  // parts concatenate in row order, which is the one-loop result.
  constexpr size_t kRows = parallel::TaskPool::kDefaultGrain;
  const size_t n = source.Count();
  std::vector<BatPtr> parts((n + kRows - 1) / kRows);
  MAMMOTH_RETURN_IF_ERROR(ctx.ParallelFor(
      parts.size(), 1, [&](size_t b, size_t e, int) -> Status {
        for (size_t c = b; c < e; ++c) {
          MAMMOTH_ASSIGN_OR_RETURN(
              parts[c], compress::DictStrSelectRange(
                            *source.sdict, lut, c * kRows,
                            std::min(n, (c + 1) * kRows), source.hseqbase));
        }
        return Status::OK();
      }));
  return ConcatParts(parts);
}

}  // namespace mammoth::scan
