#include "compress/rle.h"

namespace mammoth::compress {

namespace {

void Append(std::vector<uint8_t>* out, const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  out->insert(out->end(), b, b + n);
}

}  // namespace

template <typename T>
Status RleEncode(const T* values, size_t n, std::vector<uint8_t>* out) {
  const uint32_t header[2] = {kRleMagic<T>, static_cast<uint32_t>(n)};
  out->assign(reinterpret_cast<const uint8_t*>(header),
              reinterpret_cast<const uint8_t*>(header + 2));
  for (size_t i = 0; i < n;) {
    const T v = values[i];
    uint32_t run = 1;
    while (i + run < n && values[i + run] == v) ++run;
    Append(out, &v, sizeof(v));
    Append(out, &run, 4);
    i += run;
  }
  return Status::OK();
}

template <typename T>
Status RleDecode(const std::vector<uint8_t>& in, std::vector<T>* out) {
  uint32_t count = 0;
  MAMMOTH_RETURN_IF_ERROR(RleReadHeader<T>(in, &count));
  out->clear();
  out->reserve(count);
  return RleForEachRun<T>(
      in, [out](T v, uint32_t run) { out->insert(out->end(), run, v); });
}

template Status RleEncode(const int32_t*, size_t, std::vector<uint8_t>*);
template Status RleEncode(const int64_t*, size_t, std::vector<uint8_t>*);
template Status RleDecode(const std::vector<uint8_t>&, std::vector<int32_t>*);
template Status RleDecode(const std::vector<uint8_t>&, std::vector<int64_t>*);

}  // namespace mammoth::compress
