#ifndef MAMMOTH_COMPRESS_PDICT_H_
#define MAMMOTH_COMPRESS_PDICT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace mammoth::compress {

/// Magic opening every PdictEncode stream: (u32 magic, u32 count, u32
/// dsize, u32 bits), the int32 dictionary, then the bit-packed codes.
inline constexpr uint32_t kPdictMagic = 0x31434450;  // "PDC1"

/// PDICT — dictionary compression ([44], §5): distinct values go into a
/// per-stream dictionary; the column becomes bit-packed codes. Decode is a
/// shift-mask plus a gather from a (usually cache-resident) dictionary.
/// Fails with InvalidArgument when the column has more than 2^16 distinct
/// values (not dictionary-compressible at a useful ratio). The dictionary is
/// emitted in ascending value order, so code order equals value order and
/// constant predicates rewrite to code intervals; decoders accept both sorted
/// and legacy first-appearance dictionaries.
Status PdictEncode(const int32_t* values, size_t n,
                   std::vector<uint8_t>* out);
Status PdictDecode(const std::vector<uint8_t>& in, std::vector<int32_t>* out);

/// Decodes values [start, start+n): codes are fixed-width, so the range is
/// unpacked directly (true random access).
Status PdictDecodeRange(const std::vector<uint8_t>& in, size_t start,
                        size_t n, int32_t* out);

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_PDICT_H_
