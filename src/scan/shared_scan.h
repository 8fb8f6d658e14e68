#ifndef MAMMOTH_SCAN_SHARED_SCAN_H_
#define MAMMOTH_SCAN_SHARED_SCAN_H_

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "compress/compressed_bat.h"
#include "compress/dict_str.h"
#include "core/bat.h"
#include "core/value.h"
#include "parallel/exec_context.h"

namespace mammoth::scan {

/// The scan layer's one select route. A whole-column select goes through
/// RunKernelSource, which picks code space, binary search, chunk-wise
/// decode-then-kernel or the plain kernel for the column's image; a select
/// over candidates goes through RunKernel (or RunKernelDict for a string
/// dictionary). The §5 cooperative-scan policy is reproduced by simulation
/// in scan/cooperative.h (E14), not executed here.

/// The column image a select reads: exactly one of a plain BAT, a
/// compressed column or a string dictionary.
struct ColumnSource {
  BatPtr bat;
  std::shared_ptr<const compress::CompressedBat> comp;
  /// The dictionary of a string column, its only image: every string
  /// predicate scans its packed codes through a per-code LUT.
  std::shared_ptr<const compress::StrDict> sdict;
  Oid hseqbase = 0;  ///< head base of the column (encoded images have none)

  static ColumnSource Plain(BatPtr b) {
    ColumnSource s;
    s.hseqbase = b != nullptr ? b->hseqbase() : 0;
    s.bat = std::move(b);
    return s;
  }
  static ColumnSource Compressed(
      std::shared_ptr<const compress::CompressedBat> c, Oid hseq = 0) {
    ColumnSource s;
    s.comp = std::move(c);
    s.hseqbase = hseq;
    return s;
  }
  static ColumnSource Dict(std::shared_ptr<const compress::StrDict> d,
                           Oid hseq = 0) {
    ColumnSource s;
    s.sdict = std::move(d);
    s.hseqbase = hseq;
    return s;
  }
  bool compressed() const { return comp != nullptr; }
  size_t Count() const {
    if (comp != nullptr) return comp->Count();
    if (sdict != nullptr) return sdict->Count();
    return bat != nullptr ? bat->Count() : 0;
  }
};

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

/// A whole-column select. A dictionary source and a predicate a
/// compressed image answers in code space read that image in place, and a
/// sorted compressed source binary-searches its stream (all counted as
/// direct selects); any other compressed source decodes one statistics
/// block at a time into scratch and runs RunKernel over each (counted as a
/// fallback), and a plain one runs RunKernel over its image. Bit-identical
/// to decode-then-kernel.
Result<BatPtr> RunKernelSource(const ColumnSource& source,
                               const ScanPredicate& pred,
                               const parallel::ExecContext& ctx);

/// A select over the rows of a dictionary source that `cands` lists (a
/// sorted or unsorted OID list headed like the source; null = every row,
/// morsel-parallel under `ctx`): unpacks only the candidates' codes, never
/// the column, and counts as a direct select. Bit-identical to RunKernel
/// over the decoded column.
Result<BatPtr> RunKernelDict(const ColumnSource& source, const BatPtr& cands,
                             const ScanPredicate& pred,
                             const parallel::ExecContext& ctx);

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
