#ifndef MAMMOTH_COMPRESS_PFOR_H_
#define MAMMOTH_COMPRESS_PFOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace mammoth::compress {

/// PFOR — Patched Frame-Of-Reference ([44], §5). Values are encoded in
/// blocks of 128 as small offsets from a per-block base, bit-packed at a
/// width chosen to minimize size; outliers become *exceptions* patched back
/// in after the tight unpack loop, so the decoder's hot path stays a
/// branch-free shift-and-mask per value.
///
/// Every entry point is one implementation for T = int32_t and int64_t
/// (instantiated in pfor.cc). The two widths share the block structure
/// and differ only in the constants of PforTraits<T>; their streams carry
/// distinct magics, so a decoder of one width never misreads the other.
template <typename T>
Status PforEncode(const T* values, size_t n, std::vector<uint8_t>* out);

/// Decodes a PforEncode stream; `out` is resized to the original count.
template <typename T>
Status PforDecode(const std::vector<uint8_t>& in, std::vector<T>* out);

/// Byte offsets of every block in a PforEncode or PforDeltaEncode stream
/// of T: one O(#blocks) walk over the block headers that fails unless
/// every block of the stream's count lies inside `in`. Feeding the index
/// into PforDecodeRangeIndexed makes range decodes O(1) in the number of
/// preceding blocks — required for vector-at-a-time scans.
template <typename T>
Result<std::vector<uint32_t>> PforBuildBlockIndex(
    const std::vector<uint8_t>& in);

/// Decodes values [start, start+n) of a PforEncode stream into `out`,
/// touching only the blocks the range covers.
template <typename T>
Status PforDecodeRangeIndexed(const std::vector<uint8_t>& in,
                              const std::vector<uint32_t>& block_index,
                              size_t start, size_t n, T* out);

/// Values at rows rows[0..n) of a PforEncode stream, in any order (each
/// row below the stream's count), into out[i]. Cost is O(n + touched
/// blocks): a row reads its block's header, its packed slot and the
/// block's exception patches; a block that many consecutive rows hit is
/// decoded once instead.
template <typename T>
Status PforGather(const std::vector<uint8_t>& in,
                  const std::vector<uint32_t>& block_index,
                  const uint64_t* rows, size_t n, T* out);

/// PFOR-DELTA: zig-zag delta encoding chained into PFOR — the variant for
/// sorted or slowly-varying columns ([44]).
template <typename T>
Status PforDeltaEncode(const T* values, size_t n, std::vector<uint8_t>* out);
template <typename T>
Status PforDeltaDecode(const std::vector<uint8_t>& in, std::vector<T>* out);

/// The running value in front of every block of a PforDeltaEncode stream
/// (bases[b] is the value of row b*kPforBlock - 1, 0 for block 0), so that
/// any block decodes on its own: one O(rows) walk, done when a column is
/// loaded. Values are widened to int64.
template <typename T>
Result<std::vector<int64_t>> PforDeltaBuildBases(
    const std::vector<uint8_t>& in, const std::vector<uint32_t>& block_index);

/// Decodes values [start, start+n) of a PforDeltaEncode stream, touching
/// only the blocks the range covers.
template <typename T>
Status PforDeltaDecodeRangeIndexed(const std::vector<uint8_t>& in,
                                   const std::vector<uint32_t>& block_index,
                                   const std::vector<int64_t>& bases,
                                   size_t start, size_t n, T* out);

/// PforGather over a PforDeltaEncode stream: every block the rows touch
/// is decoded once per run of consecutive rows inside it.
template <typename T>
Status PforDeltaGather(const std::vector<uint8_t>& in,
                       const std::vector<uint32_t>& block_index,
                       const std::vector<int64_t>& bases, const uint64_t* rows,
                       size_t n, T* out);

/// Values per PFOR block.
inline constexpr size_t kPforBlock = 128;

/// The per-width constants of the PFOR stream format. Both layouts are
/// frozen (`.cbat` snapshots and WAL checkpoints carry them): a stream is
/// (u32 magic, u32 count), then per block a Header, the bit-packed
/// offsets and `n_exceptions` (u8 slot, T value) patches, and finally
/// kSlack zero bytes for the unpack loop's word loads.
template <typename T>
struct PforTraits;

template <>
struct PforTraits<int32_t> {
  static constexpr uint32_t kMagic = 0x31524650;       // "PFR1"
  static constexpr uint32_t kDeltaMagic = 0x31444650;  // "PFD1"
  struct Header {
    int32_t base;
    uint8_t bits;
    uint8_t n_exceptions;
    uint16_t payload_bytes;
  };
  static constexpr size_t kExceptionBytes = 5;
  static constexpr size_t kSlack = 8;
};

template <>
struct PforTraits<int64_t> {
  static constexpr uint32_t kMagic = 0x38524650;       // "PFR8"
  static constexpr uint32_t kDeltaMagic = 0x38444650;  // "PFD8"
  struct Header {
    int64_t base;
    uint16_t payload_bytes;
    uint8_t bits;
    uint8_t n_exceptions;
    uint32_t pad;
  };
  static constexpr size_t kExceptionBytes = 9;
  static constexpr size_t kSlack = 16;  // 8-byte loads plus the ninth byte
};

static_assert(sizeof(PforTraits<int32_t>::Header) == 8);
static_assert(sizeof(PforTraits<int64_t>::Header) == 16);

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_PFOR_H_
