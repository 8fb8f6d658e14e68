#include "scan/shared_scan.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "compress/compressed_kernels.h"
#include "core/candidates.h"
#include "core/project.h"
#include "core/select.h"
#include "parallel/task_pool.h"

namespace mammoth::scan {

namespace {

using compress::ColumnImage;
using compress::CompressedBat;

/// Whether the predicate can run over a compressed image directly
/// (code-space / run-space), bit-identical to decode-then-kernel.
bool CodeSpacePredicate(const CompressedBat& comp, const ScanPredicate& pred) {
  return pred.kind == ScanPredicate::Kind::kTheta
             ? compress::ThetaSelectableOnCompressed(comp, pred.v, pred.op)
             : compress::RangeSelectableOnCompressed(comp, pred.lo, pred.hi);
}

/// Evaluates a code-space-rewritable predicate over the compressed image
/// directly.
Result<BatPtr> EvalCodeSpace(const CompressedBat& comp,
                             const ScanPredicate& pred) {
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return compress::CompressedThetaSelect(comp, pred.v, pred.op, 0);
  }
  return compress::CompressedRangeSelect(comp, pred.lo, pred.hi, true, true,
                                         pred.anti, 0);
}

/// Whether a compressed image answers the predicate by binary search: a
/// sorted column, under every numeric predicate but LIKE.
bool SortedPredicate(const CompressedBat& comp, const ScanPredicate& pred) {
  if (!comp.props().sorted) return false;
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return pred.v.is_numeric() && pred.op != CmpOp::kLike;
  }
  return (pred.lo.is_nil() || pred.lo.is_numeric()) &&
         (pred.hi.is_nil() || pred.hi.is_numeric());
}

/// The binary-search select over a sorted compressed image. A theta
/// predicate maps onto the range it selects in a sorted column; `<>` is
/// the rows outside the `=` range.
Result<BatPtr> EvalSorted(const CompressedBat& comp,
                          const ScanPredicate& pred) {
  if (pred.kind == ScanPredicate::Kind::kRange) {
    return compress::CompressedSortedSelect(comp, pred.lo, pred.hi, true, true,
                                            pred.anti);
  }
  const Value none;
  switch (pred.op) {
    case CmpOp::kLt:
    case CmpOp::kLe:
      return compress::CompressedSortedSelect(comp, none, pred.v, true,
                                              pred.op == CmpOp::kLe, false);
    case CmpOp::kGe:
    case CmpOp::kGt:
      return compress::CompressedSortedSelect(comp, pred.v, none,
                                              pred.op == CmpOp::kGe, true,
                                              false);
    default:  // kEq, kNe
      return compress::CompressedSortedSelect(comp, pred.v, pred.v, true, true,
                                              pred.op == CmpOp::kNe);
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

/// Decode-then-kernel over a compressed image without a code-space or
/// sorted route: each statistics block decodes into a scratch buffer and
/// the stock kernel runs over it, block-parallel under `ctx`, so the
/// column is never decoded whole. Chunk results concatenate in order,
/// which is the whole-column kernel's output.
Result<BatPtr> EvalDecodedChunks(const CompressedBat& comp,
                                 const ScanPredicate& pred,
                                 const parallel::ExecContext& ctx) {
  constexpr size_t kRows = CompressedBat::kStatBlockRows;
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
          view->set_hseqbase(begin);
          MAMMOTH_ASSIGN_OR_RETURN(
              parts[c], RunKernel(view, nullptr, pred,
                                  parallel::ExecContext::Serial()));
        }
        return Status::OK();
      }));
  return ConcatParts(parts);
}

/// A select over the rows of a dictionary that `cands` lists (null =
/// every row, morsel-parallel under `ctx`): the predicate becomes a
/// per-code keep LUT, and only the listed rows' codes are unpacked.
Result<BatPtr> SelectDict(const compress::StrDict& dict, const BatPtr& cands,
                          const ScanPredicate& pred,
                          const parallel::ExecContext& ctx) {
  compress::stats::SelectDirect();
  MAMMOTH_ASSIGN_OR_RETURN(
      std::vector<uint8_t> lut,
      pred.kind == ScanPredicate::Kind::kTheta
          ? compress::DictStrThetaLut(dict, pred.v, pred.op)
          : compress::DictStrRangeLut(dict, pred.lo, pred.hi, true, true,
                                      pred.anti));
  if (cands != nullptr) {
    return compress::DictStrSelectCands(dict, lut, cands, 0);
  }
  // Every row: the code loop runs morsel by morsel under `ctx`, and the
  // parts concatenate in row order, which is the one-loop result.
  constexpr size_t kRows = parallel::TaskPool::kDefaultGrain;
  const size_t n = dict.Count();
  std::vector<BatPtr> parts((n + kRows - 1) / kRows);
  MAMMOTH_RETURN_IF_ERROR(ctx.ParallelFor(
      parts.size(), 1, [&](size_t b, size_t e, int) -> Status {
        for (size_t c = b; c < e; ++c) {
          MAMMOTH_ASSIGN_OR_RETURN(
              parts[c], compress::DictStrSelectRange(
                            dict, lut, c * kRows, std::min(n, (c + 1) * kRows),
                            0));
        }
        return Status::OK();
      }));
  return ConcatParts(parts);
}

/// Whether `cands` filters nothing: absent, or a dense list spanning every
/// row of `image` (what Table::VisibleCandidates yields for a main image
/// without deletes).
bool CoversWholeColumn(const BatPtr& cands, const ColumnImage& image) {
  return cands == nullptr ||
         (cands->IsDenseTail() && cands->Count() == image.Count() &&
          cands->tseqbase() == image.hseqbase());
}

/// A select over the rows of the main image that `cands` lists (Select's
/// routes for the main half).
Result<BatPtr> SelectMain(const ColumnImage& image, BatPtr cands,
                          const ScanPredicate& pred, bool whole,
                          const parallel::ExecContext& ctx) {
  if (whole && CoversWholeColumn(cands, image)) cands = nullptr;
  if (image.sdict != nullptr) return SelectDict(*image.sdict, cands, pred, ctx);
  if (image.bat != nullptr) return RunKernel(image.bat, cands, pred, ctx);
  const CompressedBat& comp = *image.comp;
  if (cands == nullptr) {
    if (CodeSpacePredicate(comp, pred)) {
      compress::stats::SelectDirect();
      return EvalCodeSpace(comp, pred);
    }
    if (SortedPredicate(comp, pred)) {
      compress::stats::SelectDirect();
      return EvalSorted(comp, pred);
    }
    compress::stats::SelectFallback();
    return EvalDecodedChunks(comp, pred, ctx);
  }
  compress::stats::SelectFallback();
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr values, image.Project(cands, ctx));
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr hits, RunKernel(values, nullptr, pred, ctx));
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr out, algebra::Project(hits, cands, ctx));
  out->mutable_props().sorted = out->mutable_props().key = KnownSorted(cands);
  return out;
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

Result<BatPtr> Select(const ColumnImage& image, const BatPtr& delta,
                      const BatPtr& cands, const ScanPredicate& pred,
                      bool whole, const parallel::ExecContext& ctx) {
  if (delta == nullptr || delta->empty()) {
    return SelectMain(image, cands, pred, whole, ctx);
  }
  if (!KnownSorted(cands)) {
    MAMMOTH_ASSIGN_OR_RETURN(BatPtr main, image.Decode());
    return RunKernel(ConcatColumn(main, delta), cands, pred, ctx);
  }
  const OidSplit split = SplitSortedOids(cands, delta->hseqbase());
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr tail,
                           RunKernel(delta, split.high, pred, ctx));
  // No main candidates: skip the main image (a compressed one would
  // decode just to select nothing).
  if (split.low != nullptr && split.low->empty()) return tail;
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr head,
                           SelectMain(image, split.low, pred, whole, ctx));
  if (tail->empty()) return head;
  if (head->empty()) return tail;
  BatPtr out = ConcatColumn(head, tail);
  out->mutable_props().sorted = true;
  out->mutable_props().key = true;
  return out;
}

}  // namespace mammoth::scan
