#ifndef MAMMOTH_COMPRESS_COMPRESSED_BAT_H_
#define MAMMOTH_COMPRESS_COMPRESSED_BAT_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/bat.h"

namespace mammoth::compress {

/// Codec choices for CompressedBat.
enum class Codec : uint8_t { kPfor, kPforDelta, kPdict, kRle };

const char* CodecName(Codec c);

/// A compressed integer column in the X100 storage style (§5): the column
/// is held in its compressed form and decompressed on demand — either
/// wholly (operator-at-a-time consumers) or vector-at-a-time via
/// DecodeRange (pipelined consumers decompress into a cache-resident
/// vector right before use, keeping scans CPU- rather than bandwidth-bound).
///
/// Supported tail types: kInt32 (all codecs) and kInt64 (PFOR,
/// PFOR-DELTA, RLE). Anything else yields a typed kUnsupported error.
///
/// Alongside the byte stream the column keeps per-block min/max statistics
/// (blocks of kStatBlockRows rows, aligned with the shared-scan morsel
/// grain) that double as a zone map: block skipping over a compressed
/// column never needs to decompress the skipped blocks.
///
/// Instances are cheaply copyable; copies share the compressed bytes and
/// the lazily-decoded cache (both immutable after construction, the cache
/// filled exactly once under std::call_once — safe for concurrent
/// DecodeRange callers).
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
  /// the ones captured at compression time).
  Result<BatPtr> Decode() const;

  /// Whole-column decode backed by the shared cache: the first caller
  /// decodes, every later caller gets the same immutable BAT. This is the
  /// operator-at-a-time entry point (ScanColumn, fallback kernels).
  Result<BatPtr> DecodedBat() const;

  /// Decompresses values [start, start+n) into `out` (vector-at-a-time
  /// consumption). PFOR and PDICT decode only the touched blocks; the
  /// stream codecs without random access (PFOR-DELTA's running prefix,
  /// RLE's variable-length runs) serve ranges from the shared decoded
  /// cache. The overload must match the column type.
  Status DecodeRange(size_t start, size_t n, int32_t* out) const;
  Status DecodeRange(size_t start, size_t n, int64_t* out) const;
  /// Type-erased range decode into a buffer of `width()`-sized slots.
  Status DecodeRangeRaw(size_t start, size_t n, void* out) const;

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

  /// Bytes currently pinned by the shared whole-column decode cache (0
  /// until some caller forces a full decode). Feeds the engine's
  /// compression stats so the "hidden" decoded footprint is visible.
  size_t DecodedCacheBytes() const {
    return cache_->bytes.load(std::memory_order_relaxed);
  }

  /// --- Compressed-direct kernel views ---------------------------------
  /// Parsed run list of an RLE column: values[r] repeats over rows
  /// [starts[r], starts[r+1]); starts has nruns+1 entries, the last equal
  /// to Count(). Values are widened to int64 regardless of column type.
  /// Lazily parsed once and shared by copies; error on non-RLE columns.
  struct RleRuns {
    std::vector<int64_t> values;
    std::vector<uint64_t> starts;
    size_t NumRuns() const { return values.size(); }
  };
  Result<const RleRuns*> RunsView() const;

  /// Zero-copy view into a PDICT column's dictionary and packed codes.
  /// Valid only while this CompressedBat instance is alive. `sorted` is
  /// true when the dictionary is ascending (every image written since the
  /// sorted-dict encoder; legacy first-appearance images scan via a LUT).
  struct DictView {
    const int32_t* dict = nullptr;
    uint32_t dsize = 0;
    uint32_t bits = 0;
    const uint8_t* codes = nullptr;  ///< bit-packed stream (+8B slack)
    bool sorted = false;
    /// Code of row i; callers special-case bits == 0 (dsize <= 1).
    uint32_t CodeAt(size_t i) const {
      const size_t bitpos = i * bits;
      uint64_t word;
      std::memcpy(&word, codes + bitpos / 8, sizeof(word));
      return static_cast<uint32_t>((word >> (bitpos % 8)) &
                                   ((uint64_t{1} << bits) - 1));
    }
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
  /// Fill-once decode cache shared by copies; call_once makes concurrent
  /// lazy fills race-free (the fix for the old mutable vector).
  struct DecodedCache {
    std::once_flag once;
    Status status = Status::OK();
    BatPtr bat;
    std::atomic<size_t> bytes{0};  ///< logical bytes held once filled
  };

  /// Fill-once parsed run list for RLE columns (same sharing rules as
  /// DecodedCache; the vectors own their storage so sharing across copies
  /// never dangles).
  struct RunsCache {
    std::once_flag once;
    Status status = Status::OK();
    RleRuns runs;
  };

  Status FillCache() const;
  /// Load-time check that the stream is one the kernels can run on (see
  /// Deserialize); also rebuilds the PFOR block index.
  Status CheckStream();

  Codec codec_ = Codec::kPfor;
  PhysType type_ = PhysType::kInt32;
  size_t count_ = 0;
  std::vector<uint8_t> bytes_;
  std::vector<uint32_t> block_index_;  // kPfor: byte offset per codec block
  std::vector<int64_t> stat_min_;      // per kStatBlockRows block
  std::vector<int64_t> stat_max_;
  BatProperties props_;
  std::shared_ptr<DecodedCache> cache_ = std::make_shared<DecodedCache>();
  std::shared_ptr<RunsCache> runs_cache_ = std::make_shared<RunsCache>();
};

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_COMPRESSED_BAT_H_
