#ifndef MAMMOTH_SCAN_SHARED_SCAN_H_
#define MAMMOTH_SCAN_SHARED_SCAN_H_

#include <cstdint>

#include "common/result.h"
#include "compress/compressed_exec.h"
#include "core/bat.h"
#include "core/value.h"
#include "parallel/exec_context.h"

namespace mammoth::scan {

/// The scan layer's one select route is Select below, whatever the
/// column's representation. The §5 cooperative-scan policy is reproduced
/// by simulation in scan/cooperative.h (E14), not executed here.

/// The predicate of a select, normalized from the MAL select ops.
struct ScanPredicate {
  enum class Kind : uint8_t { kTheta, kRange };
  Kind kind = Kind::kTheta;
  Value v;                 ///< theta operand
  CmpOp op = CmpOp::kEq;   ///< theta comparison
  Value lo, hi;            ///< inclusive range bounds; nil = unbounded
  bool anti = false;       ///< range inversion

  static ScanPredicate Theta(Value value, CmpOp cmp) {
    ScanPredicate p;
    p.kind = Kind::kTheta;
    p.v = std::move(value);
    p.op = cmp;
    return p;
  }
  static ScanPredicate Range(Value range_lo, Value range_hi, bool anti_sel) {
    ScanPredicate p;
    p.kind = Kind::kRange;
    p.lo = std::move(range_lo);
    p.hi = std::move(range_hi);
    p.anti = anti_sel;
    return p;
  }
};

/// The one mapping of a ScanPredicate onto the select kernels in
/// core/select.h: evaluates `pred` over the rows of `column` that `cands`
/// lists (null = every row).
Result<BatPtr> RunKernel(const BatPtr& column, const BatPtr& cands,
                         const ScanPredicate& pred,
                         const parallel::ExecContext& ctx);

/// The one select entry: evaluates `pred` over the rows of a column held
/// as (main image, pending delta) that `cands` lists (null = every row).
/// `delta` (null when nothing is pending) is headed at the main row count.
/// Sorted candidates cut at the delta's head: the delta half runs
/// RunKernel, and the main half goes by the image:
/// - with `whole` set and candidates that filter nothing, every row is
///   read: a dictionary, and a predicate a compressed image answers in
///   code space, read the image in place, and a sorted compressed image
///   binary-searches its stream (all counted as direct selects); any
///   other compressed image decodes one statistics block at a time into
///   scratch and runs RunKernel over each (counted as a fallback);
/// - otherwise a dictionary unpacks just the candidates' codes (direct),
///   and a compressed image gathers just their values, selects over those
///   and maps the hits back (a fallback);
/// - a plain image runs RunKernel.
/// Every delta OID follows every main OID, so the two sorted halves
/// concatenate. Unsorted candidates select over main ++ delta.
/// Bit-identical to RunKernel over Table::ScanColumn.
Result<BatPtr> Select(const compress::ColumnImage& image, const BatPtr& delta,
                      const BatPtr& cands, const ScanPredicate& pred,
                      bool whole, const parallel::ExecContext& ctx);

/// --- Kept only for perfbench (ROADMAP item 8) ------------------------
/// No select rides a shared pass: every select takes the route above.
/// perfbench, which changes only in a benchmark PR, still builds a
/// scheduler from `ServerConfig::shared_scan` and reads
/// `ServerStatsSnapshot::shared_scans`, so these names stay as an inert
/// shell until that PR drops them.

/// No knobs.
struct SharedScanConfig {};

/// Always zero: no select rides a shared pass. SERVER STATUS keeps its
/// `shared_*` rows, in order, reading these.
struct SharedScanStats {
  uint64_t scans_attached = 0;
  uint64_t scans_direct = 0;
  uint64_t chunks_loaded = 0;
  uint64_t chunks_delivered = 0;
  uint64_t chunks_skipped = 0;
  uint64_t chunks_direct = 0;
  uint64_t loads_saved = 0;
  uint64_t chunks_decompressed = 0;
  uint64_t bytes_loaded = 0;
  uint64_t bytes_delivered = 0;
};

/// Constructible and nothing else; ExecContext::WithSharedScans ignores it.
class SharedScanScheduler {
 public:
  explicit SharedScanScheduler(const SharedScanConfig& = {}) {}
  SharedScanScheduler(const SharedScanScheduler&) = delete;
  SharedScanScheduler& operator=(const SharedScanScheduler&) = delete;
};

}  // namespace mammoth::scan

#endif  // MAMMOTH_SCAN_SHARED_SCAN_H_
