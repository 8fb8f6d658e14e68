#ifndef MAMMOTH_INDEX_ZONEMAP_H_
#define MAMMOTH_INDEX_ZONEMAP_H_

#include <vector>

#include "common/result.h"
#include "core/bat.h"
#include "core/value.h"

namespace mammoth::index {

/// Zone map: per-block min/max summaries of a column — the light-weight
/// "partial index" family §2 alludes to ("not all data is equally
/// important"): one sequential pass to build, then range selects skip every
/// block whose [min, max] cannot intersect the predicate. Pays off on
/// (nearly) clustered data; degenerates gracefully to a plain scan on
/// random data.
class ZoneMap {
 public:
  static constexpr size_t kDefaultBlockRows = 1024;

  /// Builds over a numeric BAT (int32/int64 supported).
  static Result<ZoneMap> Build(const BatPtr& b,
                               size_t block_rows = kDefaultBlockRows);

  /// Range select [lo, hi] (inclusive) using block skipping; returns the
  /// qualifying head OIDs (sorted). Exactly equals the kernel RangeSelect.
  Result<BatPtr> RangeSelect(const Value& lo, const Value& hi) const;

  /// Number of blocks whose [min,max] intersects [lo, hi] — the scan work
  /// a query would do; used by tests and the ablation bench.
  size_t BlocksTouched(const Value& lo, const Value& hi) const;

  size_t NumBlocks() const { return mins_.size(); }
  size_t block_rows() const { return block_rows_; }

  /// Per-block summaries in canonical 64-bit, for callers that prune with
  /// predicates richer than a [lo, hi] range.
  int64_t BlockMin(size_t block) const { return mins_[block]; }
  int64_t BlockMax(size_t block) const { return maxs_[block]; }

 private:
  BatPtr column_;
  size_t block_rows_ = kDefaultBlockRows;
  std::vector<int64_t> mins_, maxs_;  // canonical 64-bit per block
};

}  // namespace mammoth::index

#endif  // MAMMOTH_INDEX_ZONEMAP_H_
