#ifndef MAMMOTH_COMPRESS_COMPRESSED_KERNELS_H_
#define MAMMOTH_COMPRESS_COMPRESSED_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "compress/compressed_bat.h"
#include "compress/dict_str.h"
#include "core/value.h"

namespace mammoth::compress {

/// Kernels that consume compressed blocks directly (Vertica-style "operate
/// on encoded data", PAPERS.md): RLE selects walk the run list and emit
/// whole candidate ranges, RLE aggregates fold value*run in O(runs), and
/// PDICT and dictionary-compressed string columns (=, !=, <, <=, >, >=,
/// LIKE) evaluate the predicate once per dictionary entry into a per-code
/// byte LUT, then run one row loop over the packed codes that emits a
/// branch-free selection vector — no decode, no heap.
///
/// Every kernel is bit-identical to decode-then-stock-kernel: same OIDs in
/// the same order, same result properties, same accumulator arithmetic
/// (integer sums fold in two's-complement exactly like the serial loop).
/// Callers test eligibility first and fall back to the decode path when a
/// kernel reports unsupported — the *Selectable* predicates below encode
/// the exact fallback matrix (DESIGN.md §13).

/// --- Eligibility -------------------------------------------------------
/// Sorted columns are excluded on purpose: the plain path answers them
/// with a binary search returning *dense* (payload-free) results, which a
/// materializing kernel cannot reproduce bit-identically. They take
/// CompressedSortedSelect instead.
bool ThetaSelectableOnCompressed(const CompressedBat& comp, const Value& v,
                                 CmpOp op);
bool RangeSelectableOnCompressed(const CompressedBat& comp, const Value& lo,
                                 const Value& hi);
/// Global SUM/MIN/MAX folds: RLE (both widths) and PDICT.
bool AggregatableOnCompressed(const CompressedBat& comp);

/// --- Selects -----------------------------------------------------------
/// Evaluates the predicate over every row of the column and returns the
/// matching OIDs (`hseq` + row) ascending, stamped exactly like a scan
/// select result.
Result<BatPtr> CompressedThetaSelect(const CompressedBat& comp,
                                     const Value& v, CmpOp op, Oid hseq);
Result<BatPtr> CompressedRangeSelect(const CompressedBat& comp,
                                     const Value& lo, const Value& hi,
                                     bool lo_incl, bool hi_incl, bool anti,
                                     Oid hseq);
/// Range select over a column compressed sorted (props().sorted), by
/// binary search: the per-block maxima find the statistics block each
/// bound falls in, probes at single rows narrow it to one 128-row stretch,
/// and only that stretch is decoded. Returns exactly what
/// algebra::RangeSelect returns on the decoded column (headed at 0, like
/// every main image) with no candidates: a dense OID list, or for `anti`
/// the materialized rows outside the range. Theta predicates map onto it
/// (`<>` is the anti `=` range). kUnsupported on an unsorted column.
Result<BatPtr> CompressedSortedSelect(const CompressedBat& comp,
                                      const Value& lo, const Value& hi,
                                      bool lo_incl, bool hi_incl, bool anti);
/// String selects on a dictionary-compressed column run in two steps: the
/// predicate becomes a per-code keep LUT over the sorted dictionary, then
/// one loop over the packed codes emits the kept rows. The LUT builders
/// reject operands the plain string kernels reject, with the same status.
///
/// The keep LUT of a theta predicate (=, <>, <, <=, >, >=, LIKE).
Result<std::vector<uint8_t>> DictStrThetaLut(const StrDict& dict,
                                             const Value& v, CmpOp op);
/// The keep LUT of a range predicate: string bounds, nil for an open end,
/// `anti` keeps the words outside the range (algebra::RangeSelect).
Result<std::vector<uint8_t>> DictStrRangeLut(const StrDict& dict,
                                             const Value& lo, const Value& hi,
                                             bool lo_incl, bool hi_incl,
                                             bool anti);
/// Rows [begin, end) whose code `lut` keeps, as OIDs `hseq` + row,
/// stamped like a scan select result.
Result<BatPtr> DictStrSelectRange(const StrDict& dict,
                                  const std::vector<uint8_t>& lut,
                                  size_t begin, size_t end, Oid hseq);
/// The candidates whose code `lut` keeps, in candidate order — exactly
/// what the plain string kernels return over the decoded column headed at
/// `hseq`. Unpacks only the candidates' codes; a dense list is a row
/// range. OutOfRange for a candidate outside the column.
Result<BatPtr> DictStrSelectCands(const StrDict& dict,
                                  const std::vector<uint8_t>& lut,
                                  const BatPtr& cands, Oid hseq);
/// Theta select over rows [begin, end): DictStrThetaLut, then the code
/// loop.
Result<BatPtr> DictStrSelectRange(const StrDict& dict, const Value& v,
                                  CmpOp op, size_t begin, size_t end,
                                  Oid hseq);

/// --- Aggregates --------------------------------------------------------
/// Global (ungrouped) folds matching AggrSum/AggrMin/AggrMax output shapes
/// (SUM: one int64 row; MIN/MAX: one row of the column type, the
/// numeric_limits identity when the column is empty). COUNT needs no
/// kernel — it is Count().
Result<BatPtr> CompressedAggrSum(const CompressedBat& comp);
Result<BatPtr> CompressedAggrMin(const CompressedBat& comp);
Result<BatPtr> CompressedAggrMax(const CompressedBat& comp);

/// --- Stats -------------------------------------------------------------
/// Process-wide monotonic counters: how often execution stayed in
/// compressed space vs decoded, plus the bounded-project accounting
/// (SERVER STATUS rows; bench_compression reads them too).
struct KernelStats {
  uint64_t selects_direct = 0;    ///< selects answered on compressed data
  uint64_t selects_fallback = 0;  ///< selects that decoded first
  uint64_t aggrs_direct = 0;
  uint64_t aggrs_fallback = 0;
  uint64_t project_bounded = 0;        ///< bounded partial decodes
  uint64_t project_bounded_bytes = 0;  ///< bytes those decodes produced
  uint64_t project_full = 0;           ///< whole-column decodes (Decode)
};
KernelStats GetKernelStats();
void ResetKernelStats();

/// Internal: counter bump points shared with compressed_exec.cc and the
/// interpreter's routing.
namespace stats {
void SelectDirect();
void SelectFallback();
void AggrDirect();
void AggrFallback();
void ProjectBounded(uint64_t bytes);
void ProjectFull();
}  // namespace stats

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_COMPRESSED_KERNELS_H_
