#include "compress/pdict.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/bitutil.h"
#include "compress/bitpack.h"

namespace mammoth::compress {

Status PdictEncode(const int32_t* values, size_t n,
                   std::vector<uint8_t>* out) {
  std::unordered_map<int32_t, uint32_t> dict;
  std::vector<int32_t> dict_values;
  std::vector<uint32_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, fresh] =
        dict.try_emplace(values[i], static_cast<uint32_t>(dict.size()));
    if (fresh) {
      dict_values.push_back(values[i]);
      if (dict_values.size() > (1u << 16)) {
        return Status::InvalidArgument(
            "pdict: more than 2^16 distinct values");
      }
    }
    codes[i] = it->second;
  }
  // Emit the dictionary in ascending value order and remap codes: with a
  // sorted dictionary, constant comparisons against the column rewrite to a
  // single contiguous code interval (compressed_kernels), while decode stays
  // a plain gather. Old first-appearance images still decode unchanged.
  std::vector<int32_t> sorted_vals = dict_values;
  std::sort(sorted_vals.begin(), sorted_vals.end());
  std::vector<uint32_t> remap(dict_values.size());
  for (size_t c = 0; c < dict_values.size(); ++c) {
    remap[c] = static_cast<uint32_t>(
        std::lower_bound(sorted_vals.begin(), sorted_vals.end(),
                         dict_values[c]) -
        sorted_vals.begin());
  }
  for (size_t i = 0; i < n; ++i) codes[i] = remap[codes[i]];
  dict_values = std::move(sorted_vals);
  const int bits =
      dict_values.size() <= 1
          ? 0
          : static_cast<int>(CeilLog2(dict_values.size()));

  out->clear();
  const uint32_t count = static_cast<uint32_t>(n);
  const uint32_t dsize = static_cast<uint32_t>(dict_values.size());
  const uint32_t bits32 = static_cast<uint32_t>(bits);
  out->insert(out->end(), reinterpret_cast<const uint8_t*>(&kPdictMagic),
              reinterpret_cast<const uint8_t*>(&kPdictMagic) + 4);
  out->insert(out->end(), reinterpret_cast<const uint8_t*>(&count),
              reinterpret_cast<const uint8_t*>(&count) + 4);
  out->insert(out->end(), reinterpret_cast<const uint8_t*>(&dsize),
              reinterpret_cast<const uint8_t*>(&dsize) + 4);
  out->insert(out->end(), reinterpret_cast<const uint8_t*>(&bits32),
              reinterpret_cast<const uint8_t*>(&bits32) + 4);
  out->insert(out->end(),
              reinterpret_cast<const uint8_t*>(dict_values.data()),
              reinterpret_cast<const uint8_t*>(dict_values.data()) +
                  dict_values.size() * 4);
  PackBits(codes.data(), n, bits, out);
  out->resize(out->size() + 8, 0);  // unpack slack
  return Status::OK();
}

Status PdictDecodeRange(const std::vector<uint8_t>& in, size_t start,
                        size_t n, int32_t* out) {
  if (in.size() < 16) return Status::IOError("pdict: truncated header");
  uint32_t magic, count, dsize, bits;
  std::memcpy(&magic, in.data(), 4);
  std::memcpy(&count, in.data() + 4, 4);
  std::memcpy(&dsize, in.data() + 8, 4);
  std::memcpy(&bits, in.data() + 12, 4);
  if (magic != kPdictMagic) return Status::IOError("pdict: bad magic");
  if (bits > 32) return Status::IOError("pdict: bad code width");
  if (start + n > count) {
    return Status::OutOfRange("pdict: range beyond column");
  }
  if (n == 0) return Status::OK();
  const size_t dict_end = 16 + static_cast<size_t>(dsize) * 4;
  // +8: the unpack loop issues 8-byte loads into the encoder's slack.
  if (in.size() < dict_end + PackedBytes(count, static_cast<int>(bits)) + 8 ||
      in.size() < dict_end) {
    return Status::IOError("pdict: truncated payload");
  }
  const int32_t* dict = reinterpret_cast<const int32_t*>(in.data() + 16);
  const uint8_t* codes = in.data() + dict_end;
  const uint64_t mask =
      bits == 0 ? 0 : ((bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1));
  for (size_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    if (bits > 0) {
      const size_t bitpos = (start + i) * bits;
      uint64_t word;
      std::memcpy(&word, codes + bitpos / 8, sizeof(word));
      code = static_cast<uint32_t>((word >> (bitpos % 8)) & mask);
    }
    if (code >= dsize) return Status::IOError("pdict: bad code");
    out[i] = dict[code];
  }
  return Status::OK();
}

Status PdictDecode(const std::vector<uint8_t>& in,
                   std::vector<int32_t>* out) {
  if (in.size() < 16) return Status::IOError("pdict: truncated header");
  uint32_t magic, count, dsize, bits;
  std::memcpy(&magic, in.data(), 4);
  std::memcpy(&count, in.data() + 4, 4);
  std::memcpy(&dsize, in.data() + 8, 4);
  std::memcpy(&bits, in.data() + 12, 4);
  if (magic != kPdictMagic) return Status::IOError("pdict: bad magic");
  if (bits > 32) return Status::IOError("pdict: bad code width");
  if (count > (1u << 28)) return Status::IOError("pdict: implausible count");
  const size_t dict_end = 16 + static_cast<size_t>(dsize) * 4;
  // +8: UnpackBits issues 8-byte loads into the encoder's slack.
  if (in.size() < dict_end + PackedBytes(count, static_cast<int>(bits)) + 8) {
    return Status::IOError("pdict: truncated payload");
  }
  const int32_t* dict = reinterpret_cast<const int32_t*>(in.data() + 16);
  std::vector<uint32_t> codes(count);
  UnpackBits(in.data() + dict_end, count, static_cast<int>(bits),
             codes.data());
  out->resize(count);
  int32_t* dst = out->data();
  for (size_t i = 0; i < count; ++i) {
    if (codes[i] >= dsize) return Status::IOError("pdict: bad code");
    dst[i] = dict[codes[i]];
  }
  return Status::OK();
}

}  // namespace mammoth::compress
