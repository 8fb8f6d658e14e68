#ifndef MAMMOTH_COMPRESS_BITPACK_H_
#define MAMMOTH_COMPRESS_BITPACK_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace mammoth::compress {

/// Bytes PackBits will produce for (n, bits).
inline size_t PackedBytes(size_t n, int bits) {
  return (n * static_cast<size_t>(bits) + 7) / 8;
}

/// Width-parameterized bit packing: the workhorse under PFOR and PDICT
/// (§5, [44]). Packs `n` values of `bits` significant bits each into a
/// little-endian bit stream; `U` is uint32_t (bits in [0, 32]) or uint64_t
/// (bits in [0, 64]), and every value must fit in `bits`. bits == 0
/// encodes a stream of zeros in zero bytes.
///
/// Each value is OR-ed in through one unaligned u64 window. A 64-bit value
/// can straddle that window (`bitpos % 8 + bits > 64`), so for uint64_t
/// the ninth byte is spilled explicitly; 32-bit values never straddle and
/// compile without the spill.
template <typename U>
inline void PackBits(const U* values, size_t n, int bits,
                     std::vector<uint8_t>* out) {
  static_assert(std::is_same_v<U, uint32_t> || std::is_same_v<U, uint64_t>);
  if (bits == 0) return;
  const size_t start = out->size();
  out->resize(start + PackedBytes(n, bits) + 16, 0);  // slack for u64 writes
  uint8_t* base = out->data() + start;
  for (size_t i = 0; i < n; ++i) {
    const size_t bitpos = i * bits;
    const int shift = static_cast<int>(bitpos % 8);
    uint64_t word;
    std::memcpy(&word, base + bitpos / 8, sizeof(word));
    word |= static_cast<uint64_t>(values[i]) << shift;
    std::memcpy(base + bitpos / 8, &word, sizeof(word));
    if constexpr (sizeof(U) == 8) {
      if (shift + bits > 64) {
        base[bitpos / 8 + 8] |= static_cast<uint8_t>(values[i] >> (64 - shift));
      }
    }
  }
  out->resize(start + PackedBytes(n, bits));
}

/// Unpacks values [from, from+n) of a stream of `bits`-bit values. The
/// source buffer must be readable up to 8 bytes (uint64_t: 9 bytes) past
/// the last touched bit; every encoder appends that much slack after its
/// packed stream. This is the only unpacker: codecs decode with from = 0,
/// and the code-space kernels unpack row windows in batches.
///
/// This is the hot loop the "<5 cycles per value" claim is about: one
/// unaligned load, one shift, one mask per value. Byte-aligned widths (8
/// and 16, the common dictionary-code widths) are plain widening copies.
template <typename U>
inline void UnpackBits(const uint8_t* src, size_t from, size_t n, int bits,
                       U* out) {
  static_assert(std::is_same_v<U, uint32_t> || std::is_same_v<U, uint64_t>);
  if (bits == 0) {
    std::memset(out, 0, n * sizeof(U));
    return;
  }
  if (bits == 8) {
    const uint8_t* p = src + from;
    for (size_t i = 0; i < n; ++i) out[i] = p[i];
    return;
  }
  if (bits == 16) {
    const uint8_t* p = src + from * 2;
    for (size_t i = 0; i < n; ++i) {
      uint16_t v;
      std::memcpy(&v, p + i * 2, sizeof(v));
      out[i] = v;
    }
    return;
  }
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  for (size_t i = 0; i < n; ++i) {
    const size_t bitpos = (from + i) * bits;
    uint64_t word;
    std::memcpy(&word, src + bitpos / 8, sizeof(word));
    uint64_t v = word >> (bitpos % 8);
    if constexpr (sizeof(U) == 8) {
      const int shift = static_cast<int>(bitpos % 8);
      if (shift + bits > 64) {
        v |= static_cast<uint64_t>(src[bitpos / 8 + 8]) << (64 - shift);
      }
    }
    out[i] = static_cast<U>(v & mask);
  }
}

/// Whether each of the first `n` codes of a `bits`-bit packed stream is
/// below `limit`. Kernels index per-code tables with raw codes, so every
/// dictionary image is checked with this once when it is loaded.
inline bool CodesBelow(const uint8_t* src, size_t n, int bits,
                       uint32_t limit) {
  if (bits < 32 && (uint64_t{1} << bits) <= limit) return true;
  constexpr size_t kBatch = 4096;
  uint32_t codes[kBatch];
  for (size_t base = 0; base < n; base += kBatch) {
    const size_t m = std::min(kBatch, n - base);
    UnpackBits(src, base, m, bits, codes);
    if (*std::max_element(codes, codes + m) >= limit) return false;
  }
  return true;
}

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_BITPACK_H_
