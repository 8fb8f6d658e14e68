#ifndef MAMMOTH_COMPRESS_BITPACK_H_
#define MAMMOTH_COMPRESS_BITPACK_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
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

namespace bitpack_internal {

/// Value at bit offset `bitpos` of a stream of kBits-bit values: one
/// unaligned load, one shift, one mask.
template <typename U, int kBits>
inline U UnpackAt(const uint8_t* src, size_t bitpos) {
  constexpr uint64_t kMask =
      kBits == 64 ? ~uint64_t{0} : ((uint64_t{1} << kBits) - 1);
  uint64_t word;
  std::memcpy(&word, src + bitpos / 8, sizeof(word));
  uint64_t v = word >> (bitpos % 8);
  if constexpr (kBits > 57) {
    // A value can straddle the 8-byte window: spill in the ninth byte.
    const int shift = static_cast<int>(bitpos % 8);
    if (shift + kBits > 64) {
      v |= static_cast<uint64_t>(src[bitpos / 8 + 8]) << (64 - shift);
    }
  }
  return static_cast<U>(v & kMask);
}

/// The unpack loop for one compile-time width. Eight values span exactly
/// kBits bytes, so from the first row that is a multiple of 8 on, values
/// unpack in groups of eight whose byte offsets and shifts are all
/// constants. Byte-aligned widths (8 and 16, the common dictionary-code
/// widths) are plain widening copies.
template <typename U, int kBits>
void UnpackFixed(const uint8_t* src, size_t from, size_t n, U* out) {
  if constexpr (kBits == 0) {
    std::memset(out, 0, n * sizeof(U));
  } else if constexpr (kBits == 8) {
    const uint8_t* p = src + from;
    for (size_t i = 0; i < n; ++i) out[i] = p[i];
  } else if constexpr (kBits == 16) {
    const uint8_t* p = src + from * 2;
    for (size_t i = 0; i < n; ++i) {
      uint16_t v;
      std::memcpy(&v, p + i * 2, sizeof(v));
      out[i] = v;
    }
  } else {
    size_t i = 0;
    for (; i < n && (from + i) % 8 != 0; ++i) {
      out[i] = UnpackAt<U, kBits>(src, (from + i) * kBits);
    }
    for (; i + 8 <= n; i += 8) {
      const uint8_t* group = src + (from + i) / 8 * kBits;
      U* dst = out + i;
      [&]<size_t... kJ>(std::index_sequence<kJ...>) {
        ((dst[kJ] = UnpackAt<U, kBits>(group, kJ * kBits)), ...);
      }(std::make_index_sequence<8>());
    }
    for (; i < n; ++i) {
      out[i] = UnpackAt<U, kBits>(src, (from + i) * kBits);
    }
  }
}

template <typename U>
using UnpackFn = void (*)(const uint8_t*, size_t, size_t, U*);

/// One UnpackFixed instantiation per width U can hold, indexed by width.
template <typename U, int... kBits>
inline constexpr UnpackFn<U> kUnpackers[] = {&UnpackFixed<U, kBits>...};

template <typename U, size_t... kIdx>
constexpr const UnpackFn<U>* UnpackTable(std::index_sequence<kIdx...>) {
  return kUnpackers<U, static_cast<int>(kIdx)...>;
}

}  // namespace bitpack_internal

/// Unpacks values [from, from+n) of a stream of `bits`-bit values. The
/// source buffer must be readable up to 8 bytes (uint64_t: 9 bytes) past
/// the last touched bit; every encoder appends that much slack after its
/// packed stream. This is the only unpacker: codecs decode with from = 0,
/// and the code-space kernels unpack row windows in batches.
///
/// This is the hot loop the "<5 cycles per value" claim is about. Every
/// other width dispatches once per call to a loop compiled for that
/// width, so the per-value work carries no variable shift or mask.
template <typename U>
inline void UnpackBits(const uint8_t* src, size_t from, size_t n, int bits,
                       U* out) {
  static_assert(std::is_same_v<U, uint32_t> || std::is_same_v<U, uint64_t>);
  // The byte-aligned copies stay inline in the caller, where the compiler
  // sees that `out` is a separate buffer and vectorizes them.
  if (bits == 8) {
    return bitpack_internal::UnpackFixed<U, 8>(src, from, n, out);
  }
  if (bits == 16) {
    return bitpack_internal::UnpackFixed<U, 16>(src, from, n, out);
  }
  constexpr size_t kWidths = 8 * sizeof(U) + 1;
  bitpack_internal::UnpackTable<U>(std::make_index_sequence<kWidths>())[bits](
      src, from, n, out);
}

/// Value `i` of a `bits`-bit packed stream: UnpackBits for a single value
/// (same slack rule), for gathers that touch rows one at a time.
template <typename U>
inline U UnpackOne(const uint8_t* src, size_t i, int bits) {
  static_assert(std::is_same_v<U, uint32_t> || std::is_same_v<U, uint64_t>);
  if (bits == 0) return 0;
  const size_t bitpos = i * static_cast<size_t>(bits);
  const int shift = static_cast<int>(bitpos % 8);
  uint64_t word;
  std::memcpy(&word, src + bitpos / 8, sizeof(word));
  uint64_t v = word >> shift;
  if constexpr (sizeof(U) == 8) {
    if (shift + bits > 64) {
      v |= static_cast<uint64_t>(src[bitpos / 8 + 8]) << (64 - shift);
    }
  }
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  return static_cast<U>(v & mask);
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
