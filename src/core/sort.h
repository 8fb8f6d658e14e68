#ifndef MAMMOTH_CORE_SORT_H_
#define MAMMOTH_CORE_SORT_H_

#include "common/result.h"
#include "core/bat.h"
#include "parallel/exec_context.h"

namespace mammoth::algebra {

/// Result of sorting a BAT.
struct SortResult {
  /// Tail values in order (ascending unless descending was requested).
  BatPtr sorted;
  /// Order index: bat[:oid] such that sorted[i] == b[order[i]]. This is the
  /// "selective replication with different sort orders" building block (§2).
  BatPtr order;
};

/// Result of a tie-aware ordering step (see RefineSort).
struct RefineSortResult {
  /// Refined order index: bat[:oid] of head OIDs of the sort column.
  BatPtr order;
  /// Non-decreasing tie-group ids aligned with `order`: rows sharing an id
  /// compared equal on every ordering key applied so far. Feed back into
  /// the next RefineSort to realize multi-column ORDER BY.
  BatPtr tie_groups;
  /// Number of distinct tie groups (== Count() when the order is total).
  size_t ngroups = 0;
};

/// Stable sort by tail value: the output permutation always equals the one
/// serial std::stable_sort produces (equal keys keep head order).
///
/// int32/int64/oid tails take an LSB radix path (parallel per-morsel
/// histograms + cross-morsel prefix sums); everything else runs
/// morsel-parallel stable run formation followed by a k-way loser-tree
/// merge with position tie-breaking. Both are bit-identical — values,
/// order BAT and properties — to the serial schedule for any `ctx`.
/// Inputs already carrying a matching `sorted`/`revsorted` property
/// short-circuit to a dense identity order (or a reversed order when the
/// `key` property additionally rules out ties) without any comparisons.
Result<SortResult> Sort(
    const BatPtr& b, bool descending = false,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());

/// Returns the first `k` head OIDs of `b` in sorted tail order (top-k),
/// exactly the prefix of Sort(b, descending).order, without sorting:
/// every worker keeps a bounded k-element heap over its morsels and the
/// per-worker survivors are merged serially — O(n + k log k) work instead
/// of a full O(n log n) sort. `k > Count()` clamps; `k == 0` yields an
/// empty BAT.
Result<BatPtr> TopN(
    const BatPtr& b, size_t k, bool descending = false,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());

/// Tie-aware ordering refinement (MonetDB's BATsort order/group chain,
/// the ordering twin of Group's subgroup refinement): stably reorders
/// `order` (null = the identity over b's head) so that rows are sorted by
/// b[order[i]] *within* each existing tie group from `tie_groups` (null =
/// one group spanning everything), then emits the refined order plus the
/// refined tie groups. Chaining RefineSort over ORDER BY keys — major key
/// first — sorts a full table while each refinement step only touches the
/// still-tied row ranges.
///
/// Equal-key rows keep their incoming order (stability), so the refined
/// order is deterministic; all sorting runs under `ctx` with bit-identical
/// results for any thread count. Tie groups that are all singletons (the
/// `key` property, which the output carries when the order is total)
/// return `order` and `tie_groups` unchanged without reading `b`.
Result<RefineSortResult> RefineSort(
    const BatPtr& b, const BatPtr& order = nullptr,
    const BatPtr& tie_groups = nullptr, bool descending = false,
    const parallel::ExecContext& ctx = parallel::ExecContext::Default());

}  // namespace mammoth::algebra

#endif  // MAMMOTH_CORE_SORT_H_
