#ifndef MAMMOTH_CORE_SELECT_H_
#define MAMMOTH_CORE_SELECT_H_

#include "common/result.h"
#include "core/bat.h"
#include "core/value.h"
#include "parallel/exec_context.h"

namespace mammoth::algebra {

/// BAT algebra select: returns the (sorted, key) OID BAT of head positions
/// of `b` whose tail value compares `op` against `v`, restricted to the
/// optional candidate list `cands` (§3: R := select(B, V)).
///
/// The kernel is a zero-degree-of-freedom tight loop per (type, op); on a
/// sorted tail with full candidates it degrades to two binary searches and
/// returns a *dense* OID BAT with no payload at all.
///
/// Numeric scans run morsel-parallel under `ctx`; results are bit-identical
/// (values and properties) for any context.
Result<BatPtr> ThetaSelect(
    const BatPtr& b, const BatPtr& cands, const Value& v, CmpOp op,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());

/// Range select: lo <= x <= hi with configurable inclusiveness. `anti`
/// inverts the predicate (x outside the range). Nil bounds mean unbounded.
/// String columns take string bounds and compare lexicographically.
Result<BatPtr> RangeSelect(
    const BatPtr& b, const BatPtr& cands, const Value& lo, const Value& hi,
    bool lo_incl = true, bool hi_incl = true, bool anti = false,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());

/// Stamps the properties every materialized select result carries:
/// ascending, pairwise-distinct OIDs. Every select route (these kernels,
/// the code-space kernels, the scan layer's chunk assembly) stamps
/// through this one function, so routes agree on properties as well as values.
void StampSelectResult(const BatPtr& r);

}  // namespace mammoth::algebra

#endif  // MAMMOTH_CORE_SELECT_H_
