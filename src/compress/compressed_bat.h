#ifndef MAMMOTH_COMPRESS_COMPRESSED_BAT_H_
#define MAMMOTH_COMPRESS_COMPRESSED_BAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/bat.h"

namespace mammoth::compress {

/// Codec choices for CompressedBat.
enum class Codec : uint8_t { kPfor, kPforDelta, kPdict, kRle };

const char* CodecName(Codec c);

/// A compressed integer column in the X100 storage style (§5): the codec
/// stream is the column's only image. Nothing decodes the column and
/// keeps the result: every read decodes just the rows it touches into
/// memory that lives for one call — a row range (DecodeRange, the
/// vector-at-a-time entry point that shared scans and dense projections
/// use), a list of rows (Gather, for scattered candidates), or, on cold
/// paths, the whole column into a fresh BAT (Decode).
///
/// Supported tail types: kInt32 (all codecs) and kInt64 (PFOR,
/// PFOR-DELTA, RLE). Anything else yields a typed kUnsupported error.
///
/// Alongside the byte stream the column keeps per-block min/max statistics
/// (blocks of kStatBlockRows rows, aligned with the shared-scan morsel
/// grain) that double as a zone map: block skipping over a compressed
/// column never needs to decompress the skipped blocks. It also keeps the
/// small derived indexes that give each codec random access, built once
/// when the column is compressed or loaded: the byte offset of every PFOR
/// and PFOR-DELTA block, the running value in front of every PFOR-DELTA
/// block, and the run list of an RLE column (IndexBytes counts them).
///
/// Instances are immutable after construction, so concurrent readers need
/// no synchronization.
class CompressedBat {
 public:
  /// Rows per statistics block. Matches TaskPool::kDefaultGrain so a
  /// morsel-aligned scan chunk covers whole stat blocks.
  static constexpr size_t kStatBlockRows = size_t{1} << 16;

  /// Compresses `b` (kInt32 or kInt64) with the chosen codec, or with the
  /// smallest of the codecs applicable to the type when unset.
  static Result<CompressedBat> Compress(const BatPtr& b, Codec codec);
  static Result<CompressedBat> CompressBest(const BatPtr& b);

  /// Decompresses the whole column into a fresh BAT (tail properties are
  /// the ones captured at compression time) that the caller owns; nothing
  /// is kept. Counted as a `project_full` in the kernel stats: only cold
  /// paths (Table::ScanColumn, leaving the compression policy, operators
  /// that need a plain BAT) take it.
  Result<BatPtr> Decode() const;

  /// Decompresses values [start, start+n) into `out` (vector-at-a-time
  /// consumption), touching only what the range covers: the PFOR and
  /// PDICT blocks or codes, the PFOR-DELTA blocks (each decoded from its
  /// indexed running value), or the RLE runs (found by binary search over
  /// the run list). The overload must match the column type.
  Status DecodeRange(size_t start, size_t n, int32_t* out) const;
  Status DecodeRange(size_t start, size_t n, int64_t* out) const;
  /// Type-erased range decode into a buffer of `width()`-sized slots.
  Status DecodeRangeRaw(size_t start, size_t n, void* out) const;

  /// Values at rows rows[0..n), in any order, into the `width()`-sized
  /// slots of `out`: out[i] is the value of row rows[i]. Costs O(n +
  /// touched blocks) on every codec — PFOR reads single slots (decoding a
  /// block whole only where the rows are dense), PDICT unpacks single
  /// codes, RLE walks its run list, PFOR-DELTA decodes the touched blocks.
  /// A row at or beyond Count() is kOutOfRange.
  Status Gather(const Oid* rows, size_t n, void* out) const;

  size_t Count() const { return count_; }
  PhysType type() const { return type_; }
  size_t width() const { return TypeWidth(type_); }
  size_t CompressedBytes() const { return bytes_.size(); }
  /// Bytes of the uncompressed tail this column stands for.
  size_t LogicalBytes() const { return count_ * width(); }
  double Ratio() const {
    return bytes_.empty() ? 0
                          : static_cast<double>(LogicalBytes()) /
                                static_cast<double>(bytes_.size());
  }
  Codec codec() const { return codec_; }
  /// Tail properties of the column at compression time.
  const BatProperties& props() const { return props_; }

  /// --- Per-block statistics (zone map) --------------------------------
  size_t NumStatBlocks() const { return stat_min_.size(); }
  int64_t StatMin(size_t block) const { return stat_min_[block]; }
  int64_t StatMax(size_t block) const { return stat_max_[block]; }

  /// Bytes of the derived indexes the column holds next to its stream
  /// (block offsets, PFOR-DELTA block bases, the RLE run list). Feeds the
  /// engine's compression stats, so everything a compressed column holds
  /// is counted.
  size_t IndexBytes() const;

  /// --- Compressed-direct kernel views ---------------------------------
  /// Parsed run list of an RLE column: values[r] repeats over rows
  /// [starts[r], starts[r+1]); starts has nruns+1 entries, the last equal
  /// to Count(). Values are widened to int64 regardless of column type.
  /// Parsed when the column is built; error on non-RLE columns.
  struct RleRuns {
    std::vector<int64_t> values;
    std::vector<uint64_t> starts;
    size_t NumRuns() const { return values.size(); }
  };
  Result<const RleRuns*> RunsView() const;

  /// Zero-copy view into a PDICT column's dictionary and packed codes.
  /// Valid only while this CompressedBat instance is alive. `sorted` is
  /// true when the dictionary is ascending (every image written since the
  /// sorted-dict encoder), which lets MIN/MAX read its two ends.
  struct DictView {
    const int32_t* dict = nullptr;
    uint32_t dsize = 0;
    uint32_t bits = 0;
    const uint8_t* codes = nullptr;  ///< bit-packed stream (+8B slack)
    bool sorted = false;
  };
  Result<DictView> PdictView() const;

  /// --- Persistence ----------------------------------------------------
  /// Self-describing byte image (codec, type, props, stats, stream); the
  /// catalog snapshot writes one per compressed column.
  void Serialize(std::string* out) const;
  /// Images come from disk at recovery and from a primary at replica
  /// bootstrap, with no checksum over them, so the stream is validated
  /// once here and anything the kernels cannot handle is kCorruption: the
  /// stream magic must match the codec and type, the stream count the
  /// header count, PFOR blocks must lie inside the stream, PDICT codes
  /// must be packed in full and name dictionary entries, and RLE runs
  /// must add up to the count.
  static Result<CompressedBat> Deserialize(std::string_view in);

 private:
  /// Compress without the derived indexes (CheckStream builds them).
  static Result<CompressedBat> Encode(const BatPtr& b, Codec codec);
  /// Load-time check that the stream is one the kernels can run on (see
  /// Deserialize); also builds the derived indexes. Compress runs it too.
  Status CheckStream();

  Codec codec_ = Codec::kPfor;
  PhysType type_ = PhysType::kInt32;
  size_t count_ = 0;
  std::vector<uint8_t> bytes_;
  std::vector<uint32_t> block_index_;  // PFOR codecs: byte offset per block
  std::vector<int64_t> delta_bases_;   // kPforDelta: value before each block
  RleRuns runs_;                       // kRle
  std::vector<int64_t> stat_min_;      // per kStatBlockRows block
  std::vector<int64_t> stat_max_;
  BatProperties props_;
};

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_COMPRESSED_BAT_H_
