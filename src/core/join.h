#ifndef MAMMOTH_CORE_JOIN_H_
#define MAMMOTH_CORE_JOIN_H_

#include "common/result.h"
#include "core/bat.h"

namespace mammoth::algebra {

/// A join result is a pair of aligned OID BATs — the join index of [39]
/// (§4.3 phase one): row i matches left head OID `left[i]` with right head
/// OID `right[i]`.
struct JoinResult {
  BatPtr left;
  BatPtr right;
  size_t Count() const { return left == nullptr ? 0 : left->Count(); }
};

/// Equi-join on tail values using a bucket-chained hash table built on the
/// right (inner) side — the "simple hash join" baseline of §4.1. Access to
/// the hash table is random; once the inner side outgrows the CPU caches
/// every probe misses, which is exactly what the radix-partitioned variant
/// in join/ fixes.
Result<JoinResult> HashJoin(const BatPtr& l, const BatPtr& r);

/// Equi-join for tails that are both sorted: linear merge.
Result<JoinResult> MergeJoin(const BatPtr& l, const BatPtr& r);

/// The kernel's join. When r's tail is a dense key (exactly lo, lo+1,
/// ..., lo+n-1, found in one pass over r) it runs a positional fetch-join:
/// a probe value v matches r row v - lo, an array index instead of a hash
/// probe (§3). Otherwise MergeJoin when both inputs are sorted, else
/// HashJoin. The positional route emits HashJoin's pairs in HashJoin's
/// order: left OIDs ascending, each matching at most one right row.
Result<JoinResult> Join(const BatPtr& l, const BatPtr& r);

}  // namespace mammoth::algebra

#endif  // MAMMOTH_CORE_JOIN_H_
