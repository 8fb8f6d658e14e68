#ifndef MAMMOTH_COMPRESS_BITPACK_H_
#define MAMMOTH_COMPRESS_BITPACK_H_

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

/// Unpacks `n` values of `bits` bits each. The source buffer must be
/// readable up to 8 bytes (uint64_t: 9 bytes) past the last touched bit;
/// every encoder appends that much slack after its packed stream.
///
/// This is the hot loop the "<5 cycles per value" claim is about: one
/// unaligned load, one shift, one mask per value.
template <typename U>
inline void UnpackBits(const uint8_t* src, size_t n, int bits, U* out) {
  static_assert(std::is_same_v<U, uint32_t> || std::is_same_v<U, uint64_t>);
  if (bits == 0) {
    std::memset(out, 0, n * sizeof(U));
    return;
  }
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  for (size_t i = 0; i < n; ++i) {
    const size_t bitpos = i * bits;
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

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_BITPACK_H_
