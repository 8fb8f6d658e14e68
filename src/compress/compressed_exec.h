#ifndef MAMMOTH_COMPRESS_COMPRESSED_EXEC_H_
#define MAMMOTH_COMPRESS_COMPRESSED_EXEC_H_

#include <memory>

#include "common/result.h"
#include "compress/compressed_bat.h"
#include "core/bat.h"
#include "parallel/exec_context.h"

namespace mammoth::compress {

/// algebra::Project over a compressed value column: out[i] = value at the
/// position named by oids[i]. Semantics match the uncompressed kernel
/// bit-for-bit (result hseqbase = oids->hseqbase(), same bounds error).
///
/// Dense OID lists (the common shape: a contiguous select result) decode
/// exactly the touched range; any other list, sorted or not, gathers only
/// its rows (CompressedBat::Gather). The column is never decoded whole,
/// and every projection counts as `project_bounded`.
Result<BatPtr> CompressedProject(
    const BatPtr& oids, const std::shared_ptr<const CompressedBat>& values);

/// Projection over a column held as (main image, pending delta): the main
/// image is `main` when set, else `comp`; `delta` (null or empty when
/// nothing is pending) is headed at the main row count. Sorted `oids` cut
/// at that boundary: the low half gathers from the main image — through
/// CompressedProject for `comp`, so dense and narrow lists stay bounded —
/// the high half from the delta, and only the gathered values are
/// concatenated. Unsorted `oids` gather each row from its own side into
/// its result slot (a plain `main` is concatenated with the delta first).
/// Bit-identical to algebra::Project over Table::ScanColumn.
Result<BatPtr> ProjectMainDelta(
    const BatPtr& oids, const BatPtr& main,
    const std::shared_ptr<const CompressedBat>& comp, const BatPtr& delta,
    const parallel::ExecContext& ctx);

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_COMPRESSED_EXEC_H_
