#ifndef MAMMOTH_COMPRESS_RLE_H_
#define MAMMOTH_COMPRESS_RLE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/result.h"

namespace mammoth::compress {

/// Run-length encoding: a (u32 magic, u32 count) header, then (T value,
/// u32 run) pairs. The win case is sorted or low-cardinality clustered
/// columns; the pathological case (no runs) doubles the size, which the
/// compression benchmark (E8) reports honestly. One implementation serves
/// T = int32_t and int64_t (instantiated in rle.cc); the magic tells the
/// widths apart.
template <typename T>
inline constexpr uint32_t kRleMagic =
    sizeof(T) == 4 ? 0x31454C52 /* "RLE1" */ : 0x38454C52 /* "RLE8" */;

template <typename T>
Status RleEncode(const T* values, size_t n, std::vector<uint8_t>* out);
template <typename T>
Status RleDecode(const std::vector<uint8_t>& in, std::vector<T>* out);

/// Reads the (magic, count) header of an RLE stream of T.
template <typename T>
Status RleReadHeader(const std::vector<uint8_t>& in, uint32_t* count) {
  if (in.size() < 8) return Status::IOError("rle: truncated header");
  uint32_t magic = 0;
  std::memcpy(&magic, in.data(), 4);
  std::memcpy(count, in.data() + 4, 4);
  if (magic != kRleMagic<T>) return Status::IOError("rle: bad magic");
  // Sanity cap: protects against corrupted counts demanding multi-GB
  // decodes (a legitimate column in this library is far smaller).
  if (*count > (1u << 28)) return Status::IOError("rle: implausible count");
  return Status::OK();
}

/// The one parser of the RLE stream: calls fn(value, run) for each pair in
/// order and fails unless the runs add up to exactly the header's count.
template <typename T, typename Fn>
Status RleForEachRun(const std::vector<uint8_t>& in, Fn&& fn) {
  uint32_t count = 0;
  MAMMOTH_RETURN_IF_ERROR(RleReadHeader<T>(in, &count));
  size_t off = 8;
  for (uint64_t row = 0; row < count;) {
    if (off + sizeof(T) + 4 > in.size()) {
      return Status::IOError("rle: truncated run");
    }
    T v = 0;
    uint32_t run = 0;
    std::memcpy(&v, in.data() + off, sizeof(T));
    std::memcpy(&run, in.data() + off + sizeof(T), 4);
    off += sizeof(T) + 4;
    if (row + run > count) return Status::IOError("rle: run overflow");
    fn(v, run);
    row += run;
  }
  return Status::OK();
}

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_RLE_H_
