#ifndef MAMMOTH_CORE_GROUP_H_
#define MAMMOTH_CORE_GROUP_H_

#include "common/result.h"
#include "core/bat.h"
#include "parallel/exec_context.h"

namespace mammoth::algebra {

/// Result of a grouping step.
struct GroupResult {
  /// For every input row, the group id it belongs to (bat[:oid], aligned
  /// with the input head).
  BatPtr groups;
  /// For every group, the head OID of its first member (the group's
  /// representative row), usable to project group-by key columns.
  BatPtr extents;
  size_t ngroups = 0;
};

/// Groups `b` by tail value. When `prev` (a prior GroupResult::groups) is
/// given, refines the existing grouping instead — MonetDB's
/// group.subgroup chain, which is how multi-column GROUP BY is executed
/// column-at-a-time (§3).
///
/// Integer keys whose (prev group, key) domain — prev groups times the
/// [min, max] span of `b` — has at most 64Ki pairs take a direct-indexed
/// route: one min/max pass, then a slot array indexed by
/// prev·span + (v − min) instead of a hash table. Under a parallel `ctx`
/// its rows go morsel-parallel, and the slots are numbered by their
/// first rows in between. Wider domains, floats and strings hash; under a
/// parallel `ctx` the hash probes run morsel-parallel into per-worker
/// local tables, and a final single-threaded pass renumbers local ids by
/// first appearance in row order. Every route numbers groups by first
/// appearance, so group ids and extents are bit-identical across routes
/// and contexts.
Result<GroupResult> Group(
    const BatPtr& b, const BatPtr& prev = nullptr, size_t prev_ngroups = 0,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());

/// Per-group aggregates. `groups` maps each row of `values` to a group id
/// in [0, ngroups); pass groups == nullptr with ngroups == 1 for a global
/// aggregate. Sums of integer tails widen to :lng, of floating tails to
/// :dbl. Empty groups yield 0 for sum/count; min/max of an empty group is
/// unspecified.
///
/// Sum (integer), count, min and max compute per-worker partials merged in
/// a single-threaded pass; these are exactly associative, so results are
/// bit-identical for any context. Floating-point sums and averages always
/// run serially to preserve the serial rounding order.
Result<BatPtr> AggrSum(
    const BatPtr& values, const BatPtr& groups, size_t ngroups,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());
Result<BatPtr> AggrCount(
    const BatPtr& groups, size_t ngroups, size_t nrows,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());
Result<BatPtr> AggrMin(
    const BatPtr& values, const BatPtr& groups, size_t ngroups,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());
Result<BatPtr> AggrMax(
    const BatPtr& values, const BatPtr& groups, size_t ngroups,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());
Result<BatPtr> AggrAvg(const BatPtr& values, const BatPtr& groups,
                       size_t ngroups);

/// Distinct tail values of `b`, in first-appearance order.
Result<BatPtr> Distinct(
    const BatPtr& b,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());

}  // namespace mammoth::algebra

#endif  // MAMMOTH_CORE_GROUP_H_
