#ifndef MAMMOTH_COMPRESS_COMPRESSED_EXEC_H_
#define MAMMOTH_COMPRESS_COMPRESSED_EXEC_H_

#include <memory>

#include "common/result.h"
#include "compress/compressed_bat.h"
#include "compress/dict_str.h"
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

/// algebra::Project over a dictionary string column: gathers the listed
/// rows' codes (a dense list unpacks its row range) and maps each to its
/// word's offset in the dictionary's heap, so the result is a string BAT
/// over StrDict::heap(). Counts as `project_bounded`, like
/// CompressedProject; the column is never decoded whole.
Result<BatPtr> DictProject(const BatPtr& oids,
                           const std::shared_ptr<const StrDict>& values);

/// The global aggregates an encoded image folds without decoding.
enum class FoldOp : uint8_t { kSum, kMin, kMax };

/// A column's main image, whatever its storage (§3: a column is one BAT
/// whatever its representation, and operators ask its properties):
/// exactly one of a plain BAT, a compressed integer column or a string
/// dictionary is set. The table stores one per column, the MAL interpreter
/// binds it, the recycler caches it, scan::Select selects from it and
/// ProjectMainDelta gathers from it. An encoded image is headed at 0, like
/// every table's main image.
struct ColumnImage {
  BatPtr bat{};
  /// A compressed int or bigint column: the codec stream is its only
  /// image (selects run in code space, by binary search or chunk-wise;
  /// projections gather just the listed rows).
  std::shared_ptr<const CompressedBat> comp{};
  /// A string column's dictionary, its only image: selects run over its
  /// packed codes, projections gather codes as offsets into its heap.
  std::shared_ptr<const StrDict> sdict{};

  /// How a table stores the plain column `b`: under the compression
  /// policy an int or bigint column keeps CompressBest's stream and a
  /// string column its dictionary; a column no codec takes stays plain.
  static ColumnImage Store(BatPtr b, bool compress);

  /// Whether an image is set at all.
  explicit operator bool() const {
    return bat != nullptr || comp != nullptr || sdict != nullptr;
  }
  bool encoded() const { return comp != nullptr || sdict != nullptr; }
  PhysType type() const;
  size_t Count() const;
  Oid hseqbase() const { return bat != nullptr ? bat->hseqbase() : 0; }

  /// The whole column as a plain BAT: the BAT itself, or a fresh decode
  /// that nothing keeps (counted as `project_full`). A dictionary decodes
  /// onto its own heap, which the column's string delta shares.
  Result<BatPtr> Decode() const;
  /// The image as a BAT without decoding: the plain BAT, an empty BAT
  /// over a dictionary's heap (where a string delta interns), or an empty
  /// BAT of a compressed column's type.
  BatPtr Stub() const;
  /// algebra::Project over the image; an encoded one gathers only the
  /// listed rows (CompressedProject, DictProject).
  Result<BatPtr> Project(const BatPtr& oids,
                         const parallel::ExecContext& ctx) const;
  /// A global SUM, MIN or MAX folded over the runs of an RLE image or the
  /// codes of a PDICT one (CompressedAggrSum/Min/Max), in O(runs + dict)
  /// without decoding; null for any other image.
  Result<BatPtr> Fold(FoldOp op) const;

  /// Footprint of an encoded image, zero for a plain one: its stream, the
  /// plain bytes it stands for, and the derived indexes next to it
  /// (CompressedBat::IndexBytes, StrDict::IndexBytes).
  size_t EncodedBytes() const;
  size_t LogicalBytes() const;
  size_t IndexBytes() const;
};

/// Projection over a column held as (main image, pending delta): `delta`
/// (null or empty when nothing is pending) is headed at the main row count
/// and, for a dictionary column, shares the dictionary's heap. Sorted
/// `oids` cut at that boundary: the low half gathers from the main image
/// — bounded for an encoded one, for dense and narrow lists alike — the
/// high half from the delta, and only the gathered values are
/// concatenated. Unsorted `oids` gather each row from its own side into
/// its result slot (a plain main is concatenated with the delta first).
/// Bit-identical to algebra::Project over Table::ScanColumn.
Result<BatPtr> ProjectMainDelta(const BatPtr& oids, const ColumnImage& main,
                                const BatPtr& delta,
                                const parallel::ExecContext& ctx);

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_COMPRESSED_EXEC_H_
