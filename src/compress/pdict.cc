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
  // Emit the dictionary in ascending value order and remap codes: code
  // order is then value order, so MIN/MAX read the dictionary's two ends
  // (compressed_kernels), while decode stays a plain gather. Old
  // first-appearance images still decode unchanged.
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

namespace {

/// A PdictEncode stream whose header, dictionary and packed codes are
/// checked to lie inside the buffer.
struct PdictStream {
  uint32_t count = 0;
  uint32_t dsize = 0;
  uint32_t bits = 0;
  const int32_t* dict = nullptr;
  const uint8_t* codes = nullptr;
};

Status ParsePdict(const std::vector<uint8_t>& in, PdictStream* s) {
  if (in.size() < 16) return Status::IOError("pdict: truncated header");
  uint32_t magic;
  std::memcpy(&magic, in.data(), 4);
  std::memcpy(&s->count, in.data() + 4, 4);
  std::memcpy(&s->dsize, in.data() + 8, 4);
  std::memcpy(&s->bits, in.data() + 12, 4);
  if (magic != kPdictMagic) return Status::IOError("pdict: bad magic");
  if (s->bits > 32) return Status::IOError("pdict: bad code width");
  if (s->count > (1u << 28)) {
    return Status::IOError("pdict: implausible count");
  }
  const size_t dict_end = 16 + static_cast<size_t>(s->dsize) * 4;
  // +8: UnpackBits issues 8-byte loads into the encoder's slack.
  if (in.size() <
      dict_end + PackedBytes(s->count, static_cast<int>(s->bits)) + 8) {
    return Status::IOError("pdict: truncated payload");
  }
  s->dict = reinterpret_cast<const int32_t*>(in.data() + 16);
  s->codes = in.data() + dict_end;
  return Status::OK();
}

/// Gathers rows [start, start+n) through the dictionary, unpacking the
/// codes in L1-sized batches.
Status GatherRows(const PdictStream& s, size_t start, size_t n,
                  int32_t* out) {
  constexpr size_t kBatch = 4096;
  uint32_t codes[kBatch];
  for (size_t done = 0; done < n; done += kBatch) {
    const size_t m = std::min(kBatch, n - done);
    UnpackBits(s.codes, start + done, m, static_cast<int>(s.bits), codes);
    for (size_t i = 0; i < m; ++i) {
      if (codes[i] >= s.dsize) return Status::IOError("pdict: bad code");
      out[done + i] = s.dict[codes[i]];
    }
  }
  return Status::OK();
}

}  // namespace

Status PdictDecodeRange(const std::vector<uint8_t>& in, size_t start,
                        size_t n, int32_t* out) {
  PdictStream s;
  MAMMOTH_RETURN_IF_ERROR(ParsePdict(in, &s));
  if (start + n > s.count) {
    return Status::OutOfRange("pdict: range beyond column");
  }
  return GatherRows(s, start, n, out);
}

Status PdictGather(const std::vector<uint8_t>& in, const uint64_t* rows,
                   size_t n, int32_t* out) {
  PdictStream s;
  MAMMOTH_RETURN_IF_ERROR(ParsePdict(in, &s));
  const int bits = static_cast<int>(s.bits);
  for (size_t i = 0; i < n; ++i) {
    if (rows[i] >= s.count) {
      return Status::OutOfRange("pdict: row beyond column");
    }
    const uint32_t code = UnpackOne<uint32_t>(s.codes, rows[i], bits);
    if (code >= s.dsize) return Status::IOError("pdict: bad code");
    out[i] = s.dict[code];
  }
  return Status::OK();
}

Status PdictDecode(const std::vector<uint8_t>& in,
                   std::vector<int32_t>* out) {
  PdictStream s;
  MAMMOTH_RETURN_IF_ERROR(ParsePdict(in, &s));
  out->resize(s.count);
  return GatherRows(s, 0, s.count, out->data());
}

}  // namespace mammoth::compress
