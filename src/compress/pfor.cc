#include "compress/pfor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "compress/bitpack.h"

namespace mammoth::compress {

namespace {

template <typename T>
using Unsigned = std::make_unsigned_t<T>;

template <typename T>
constexpr int kWidth = 8 * sizeof(T);

template <typename T>
using Header = typename PforTraits<T>::Header;

void Append(std::vector<uint8_t>* out, const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  out->insert(out->end(), b, b + n);
}

/// Picks the (base, bits) frame minimizing block bytes (payload +
/// exceptions). Unlike naive FOR (base = min), the frame is the *densest*
/// value window, so outliers on either side become exceptions instead of
/// widening every slot — the "patched" part of PFOR.
template <typename T>
void ChooseFrame(const T* v, size_t n, T* base_out, int* bits_out) {
  using U = Unsigned<T>;
  T sorted[kPforBlock];
  std::copy(v, v + n, sorted);
  std::sort(sorted, sorted + n);

  size_t best_cost = std::numeric_limits<size_t>::max();
  int best_bits = kWidth<T>;
  T best_base = sorted[0];
  for (int b = 0; b <= kWidth<T>; ++b) {
    size_t covered = n;  // a full-width frame holds every value
    size_t base_idx = 0;
    if (b < kWidth<T>) {
      // Widest window of 2^b consecutive values over the sorted block,
      // measured in modular distance.
      const U span = U{1} << b;
      covered = 0;
      for (size_t i = 0, j = 0; i < n; ++i) {
        if (j < i) j = i;
        while (j < n && static_cast<U>(static_cast<U>(sorted[j]) -
                                       static_cast<U>(sorted[i])) < span) {
          ++j;
        }
        if (j - i > covered) {
          covered = j - i;
          base_idx = i;
        }
      }
    }
    const size_t exceptions = n - covered;
    if (exceptions > 255) continue;
    const size_t cost =
        PackedBytes(n, b) + exceptions * PforTraits<T>::kExceptionBytes;
    if (cost < best_cost) {
      best_cost = cost;
      best_bits = b;
      best_base = sorted[base_idx];
    }
  }
  *base_out = best_base;
  *bits_out = best_bits;
}

template <typename T>
Status EncodeStream(uint32_t magic, const T* values, size_t n,
                    std::vector<uint8_t>* out) {
  using U = Unsigned<T>;
  const uint32_t header[2] = {magic, static_cast<uint32_t>(n)};
  out->assign(reinterpret_cast<const uint8_t*>(header),
              reinterpret_cast<const uint8_t*>(header + 2));

  for (size_t start = 0; start < n; start += kPforBlock) {
    const size_t bn = std::min(kPforBlock, n - start);
    const T* v = values + start;
    T base = 0;
    int bits = 0;
    ChooseFrame(v, bn, &base, &bits);
    // Modular deltas: values below the base wrap to huge offsets and are
    // caught as exceptions like values above the frame. Exceptions keep a
    // packed slot of 0 and are patched after unpack.
    U packed[kPforBlock];
    uint8_t ex_pos[kPforBlock];
    size_t n_ex = 0;
    for (size_t i = 0; i < bn; ++i) {
      const U d = static_cast<U>(v[i]) - static_cast<U>(base);
      if (bits < kWidth<T> && d >= (U{1} << bits)) {
        ex_pos[n_ex++] = static_cast<uint8_t>(i);
        packed[i] = 0;
      } else {
        packed[i] = d;
      }
    }

    Header<T> hdr{};
    hdr.base = base;
    hdr.bits = static_cast<uint8_t>(bits);
    hdr.n_exceptions = static_cast<uint8_t>(n_ex);
    hdr.payload_bytes = static_cast<uint16_t>(PackedBytes(bn, bits));
    Append(out, &hdr, sizeof(hdr));
    PackBits(packed, bn, bits, out);
    for (size_t e = 0; e < n_ex; ++e) {
      Append(out, &ex_pos[e], 1);
      Append(out, &v[ex_pos[e]], sizeof(T));
    }
  }
  out->resize(out->size() + PforTraits<T>::kSlack, 0);
  return Status::OK();
}

/// Reads the (magic, count) stream header: a PFOR or PFOR-DELTA magic of
/// T, and a count whose blocks could fit in `in` (each needs at least a
/// header), so a corrupted count cannot force an implausible allocation.
template <typename T>
Status ReadStreamHeader(const std::vector<uint8_t>& in, uint32_t* magic,
                        uint32_t* count) {
  if (in.size() < 8) return Status::IOError("pfor: truncated header");
  std::memcpy(magic, in.data(), 4);
  std::memcpy(count, in.data() + 4, 4);
  if (*magic != PforTraits<T>::kMagic &&
      *magic != PforTraits<T>::kDeltaMagic) {
    return Status::IOError("pfor: bad magic");
  }
  if ((size_t{*count} + kPforBlock - 1) / kPforBlock >
      in.size() / sizeof(Header<T>)) {
    return Status::IOError("pfor: implausible count");
  }
  return Status::OK();
}

template <typename T>
size_t BlockBytes(const Header<T>& hdr) {
  return sizeof(hdr) + hdr.payload_bytes +
         static_cast<size_t>(hdr.n_exceptions) * PforTraits<T>::kExceptionBytes;
}

/// Reads the header of the block at byte `off` holding `bn` values and
/// checks it: a sane width, the payload size the encoder writes for it
/// (anything else would desynchronize UnpackBits), and the block plus the
/// unpack slack inside `in` (the stream's trailing slack follows every
/// block). Returns nullptr when the block checks out, else what is wrong.
template <typename T>
const char* ReadBlockHeader(const std::vector<uint8_t>& in, size_t off,
                            size_t bn, Header<T>* hdr) {
  if (off + sizeof(*hdr) > in.size()) return "pfor: truncated block header";
  std::memcpy(hdr, in.data() + off, sizeof(*hdr));
  if (hdr->bits > kWidth<T>) return "pfor: bad block width";
  if (hdr->payload_bytes != PackedBytes(bn, hdr->bits)) {
    return "pfor: inconsistent block header";
  }
  if (off + BlockBytes<T>(*hdr) + PforTraits<T>::kSlack > in.size()) {
    return "pfor: truncated block payload";
  }
  return nullptr;
}

/// The one block walker: calls fn(block_start, bn, off, hdr) for each
/// block of a `count`-row stream in order, once its header checks out.
/// Like the block helpers, fn returns nullptr or what is wrong.
template <typename T, typename Fn>
Status WalkBlocks(const std::vector<uint8_t>& in, uint32_t count, Fn&& fn) {
  size_t off = 8;
  for (size_t block_start = 0; block_start < count;
       block_start += kPforBlock) {
    const size_t bn = std::min(kPforBlock, count - block_start);
    Header<T> hdr{};
    const char* err = ReadBlockHeader<T>(in, off, bn, &hdr);
    if (err == nullptr) err = fn(block_start, bn, off, hdr);
    if (err != nullptr) return Status::IOError(err);
    off += BlockBytes<T>(hdr);
  }
  return Status::OK();
}

/// The block decoder: decodes the first `m` of the `bn` values of the
/// checked block `hdr` at byte `off` into dst. Returns nullptr, or what
/// is wrong.
template <typename T>
const char* DecodeBlock(const std::vector<uint8_t>& in, size_t off,
                        const Header<T>& hdr, size_t bn, size_t m, T* dst) {
  using U = Unsigned<T>;
  // Hot path: unpack + add base (modular, mirroring the encoder's delta).
  U unpacked[kPforBlock];
  UnpackBits(in.data() + off + sizeof(hdr), 0, m, hdr.bits, unpacked);
  for (size_t i = 0; i < m; ++i) {
    dst[i] = static_cast<T>(static_cast<U>(hdr.base) + unpacked[i]);
  }
  const uint8_t* ex = in.data() + off + sizeof(hdr) + hdr.payload_bytes;
  for (size_t e = 0; e < hdr.n_exceptions;
       ++e, ex += PforTraits<T>::kExceptionBytes) {
    if (ex[0] >= bn) return "pfor: bad exception slot";
    if (ex[0] < m) std::memcpy(&dst[ex[0]], ex + 1, sizeof(T));
  }
  return nullptr;
}

template <typename T>
Status DecodeStream(uint32_t magic, const std::vector<uint8_t>& in,
                    std::vector<T>* out) {
  uint32_t got_magic = 0, count = 0;
  MAMMOTH_RETURN_IF_ERROR(ReadStreamHeader<T>(in, &got_magic, &count));
  if (got_magic != magic) return Status::IOError("pfor: bad magic");
  out->resize(count);
  T* dst = out->data();
  return WalkBlocks<T>(in, count,
                       [&](size_t block_start, size_t bn, size_t off,
                           const Header<T>& hdr) {
                         return DecodeBlock(in, off, hdr, bn, bn,
                                            dst + block_start);
                       });
}

template <typename T>
Unsigned<T> ZigZag(T v) {
  return (static_cast<Unsigned<T>>(v) << 1) ^
         static_cast<Unsigned<T>>(v >> (kWidth<T> - 1));
}

template <typename T>
T UnZigZag(Unsigned<T> z) {
  return static_cast<T>((z >> 1) ^ (~(z & 1) + 1));
}

/// Decodes block `b` of a `count`-row stream into dst, found through the
/// block index: its first `upto` values (the whole block, up to
/// kPforBlock values, by default). With `bases` the stream is PFOR-DELTA:
/// the block's zig-zag deltas are summed onto the running value in front
/// of it. Returns nullptr, or what is wrong.
template <typename T>
const char* DecodeIndexedBlock(const std::vector<uint8_t>& in,
                               const std::vector<uint32_t>& block_index,
                               const std::vector<int64_t>* bases,
                               uint32_t count, size_t b, T* dst,
                               size_t upto = kPforBlock) {
  using U = Unsigned<T>;
  if (b >= block_index.size() || (bases != nullptr && b >= bases->size())) {
    return "pfor: block index too short";
  }
  const size_t block_start = b * kPforBlock;
  const size_t bn = std::min(kPforBlock, count - block_start);
  const size_t m = std::min(bn, upto);
  Header<T> hdr{};
  const char* err = ReadBlockHeader<T>(in, block_index[b], bn, &hdr);
  if (err == nullptr) err = DecodeBlock(in, block_index[b], hdr, bn, m, dst);
  if (err == nullptr && bases != nullptr) {
    U prev = static_cast<U>(static_cast<T>((*bases)[b]));
    for (size_t i = 0; i < m; ++i) {
      prev += static_cast<U>(UnZigZag<T>(static_cast<U>(dst[i])));
      dst[i] = static_cast<T>(prev);
    }
  }
  return err;
}

/// Consecutive PFOR rows of one block at or above which a gather decodes
/// the block whole instead of extracting row by row.
constexpr size_t kDenseGatherRows = 24;

/// Reads the values at rows [i, j) — all inside block `b` of a PforEncode
/// stream — one at a time: each is the block's base plus its packed slot,
/// unless an exception patches that slot. A 128-bit mask of the patched
/// slots keeps the exception list out of the per-row path.
template <typename T>
const char* ExtractRows(const std::vector<uint8_t>& in,
                        const std::vector<uint32_t>& block_index,
                        uint32_t count, size_t b, const uint64_t* rows,
                        size_t i, size_t j, T* out) {
  using U = Unsigned<T>;
  if (b >= block_index.size()) return "pfor: block index too short";
  const size_t block_start = b * kPforBlock;
  const size_t bn = std::min(kPforBlock, count - block_start);
  Header<T> hdr{};
  const char* err = ReadBlockHeader<T>(in, block_index[b], bn, &hdr);
  if (err != nullptr) return err;
  const uint8_t* payload = in.data() + block_index[b] + sizeof(hdr);
  const uint8_t* ex = payload + hdr.payload_bytes;
  constexpr size_t kEx = PforTraits<T>::kExceptionBytes;
  uint64_t patched[2] = {0, 0};
  for (size_t e = 0; e < hdr.n_exceptions; ++e) {
    const uint8_t slot = ex[e * kEx];
    if (slot >= bn) return "pfor: bad exception slot";
    patched[slot / 64] |= uint64_t{1} << (slot % 64);
  }
  const U base = static_cast<U>(hdr.base);
  const int bits = hdr.bits;
  for (size_t k = i; k < j; ++k) {
    const size_t slot = rows[k] - block_start;
    T v = static_cast<T>(base + UnpackOne<U>(payload, slot, bits));
    if ((patched[slot / 64] >> (slot % 64)) & 1) {
      // The block decoder applies patches in order: the last one wins.
      for (size_t e = 0; e < hdr.n_exceptions; ++e) {
        if (ex[e * kEx] == slot) std::memcpy(&v, ex + e * kEx + 1, sizeof(T));
      }
    }
    out[k] = v;
  }
  return nullptr;
}

/// The gather behind PforGather and PforDeltaGather: walks the rows in
/// runs that stay inside one block. PFOR-DELTA (`bases` set) and dense
/// runs decode their block once, from its start through the run's last
/// touched row; sparse PFOR runs extract row by row.
template <typename T>
Status GatherStream(uint32_t magic, const std::vector<uint8_t>& in,
                    const std::vector<uint32_t>& block_index,
                    const std::vector<int64_t>* bases, const uint64_t* rows,
                    size_t n, T* out) {
  uint32_t got_magic = 0, count = 0;
  MAMMOTH_RETURN_IF_ERROR(ReadStreamHeader<T>(in, &got_magic, &count));
  if (got_magic != magic) return Status::IOError("pfor: bad magic");
  for (size_t i = 0; i < n;) {
    if (rows[i] >= count) return Status::OutOfRange("pfor: row beyond column");
    const size_t b = rows[i] / kPforBlock;
    size_t j = i + 1;
    while (j < n && rows[j] / kPforBlock == b && rows[j] < count) ++j;
    const char* err = nullptr;
    if (bases != nullptr || j - i >= kDenseGatherRows) {
      T block[kPforBlock];
      const uint64_t last = *std::max_element(rows + i, rows + j);
      err = DecodeIndexedBlock(in, block_index, bases, count, b, block,
                               last - b * kPforBlock + 1);
      for (size_t k = i; err == nullptr && k < j; ++k) {
        out[k] = block[rows[k] - b * kPforBlock];
      }
    } else {
      err = ExtractRows(in, block_index, count, b, rows, i, j, out);
    }
    if (err != nullptr) return Status::IOError(err);
    i = j;
  }
  return Status::OK();
}

/// The range decoder behind PforDecodeRangeIndexed and
/// PforDeltaDecodeRangeIndexed: decodes every block the range touches,
/// straight into `out` when the range covers it, else through a scratch
/// block whose overlap is copied.
template <typename T>
Status DecodeRangeStream(uint32_t magic, const std::vector<uint8_t>& in,
                         const std::vector<uint32_t>& block_index,
                         const std::vector<int64_t>* bases, size_t start,
                         size_t n, T* out) {
  uint32_t got_magic = 0, count = 0;
  MAMMOTH_RETURN_IF_ERROR(ReadStreamHeader<T>(in, &got_magic, &count));
  if (got_magic != magic) return Status::IOError("pfor: bad magic");
  if (start + n > count) return Status::OutOfRange("pfor: range beyond column");
  if (n == 0) return Status::OK();
  for (size_t b = start / kPforBlock; b * kPforBlock < start + n; ++b) {
    const size_t block_start = b * kPforBlock;
    const size_t bn = std::min(kPforBlock, size_t{count} - block_start);
    const bool whole = block_start >= start && block_start + bn <= start + n;
    T scratch[kPforBlock];
    T* dst = whole ? out + (block_start - start) : scratch;
    const char* err =
        DecodeIndexedBlock(in, block_index, bases, count, b, dst);
    if (err != nullptr) return Status::IOError(err);
    if (!whole) {
      const size_t lo = std::max(start, block_start);
      const size_t hi = std::min(start + n, block_start + bn);
      std::copy(scratch + (lo - block_start), scratch + (hi - block_start),
                out + (lo - start));
    }
  }
  return Status::OK();
}

}  // namespace

template <typename T>
Status PforEncode(const T* values, size_t n, std::vector<uint8_t>* out) {
  return EncodeStream(PforTraits<T>::kMagic, values, n, out);
}

template <typename T>
Status PforDecode(const std::vector<uint8_t>& in, std::vector<T>* out) {
  return DecodeStream(PforTraits<T>::kMagic, in, out);
}

template <typename T>
Result<std::vector<uint32_t>> PforBuildBlockIndex(
    const std::vector<uint8_t>& in) {
  uint32_t magic = 0, count = 0;
  MAMMOTH_RETURN_IF_ERROR(ReadStreamHeader<T>(in, &magic, &count));
  std::vector<uint32_t> offsets;
  offsets.reserve((size_t{count} + kPforBlock - 1) / kPforBlock);
  MAMMOTH_RETURN_IF_ERROR(WalkBlocks<T>(
      in, count,
      [&](size_t, size_t, size_t off, const Header<T>&) -> const char* {
        offsets.push_back(static_cast<uint32_t>(off));
        return nullptr;
      }));
  return offsets;
}

template <typename T>
Status PforDecodeRangeIndexed(const std::vector<uint8_t>& in,
                              const std::vector<uint32_t>& block_index,
                              size_t start, size_t n, T* out) {
  return DecodeRangeStream(PforTraits<T>::kMagic, in, block_index, nullptr,
                           start, n, out);
}

template <typename T>
Status PforGather(const std::vector<uint8_t>& in,
                  const std::vector<uint32_t>& block_index,
                  const uint64_t* rows, size_t n, T* out) {
  return GatherStream(PforTraits<T>::kMagic, in, block_index, nullptr, rows,
                      n, out);
}

template <typename T>
Result<std::vector<int64_t>> PforDeltaBuildBases(
    const std::vector<uint8_t>& in, const std::vector<uint32_t>& block_index) {
  using U = Unsigned<T>;
  uint32_t magic = 0, count = 0;
  MAMMOTH_RETURN_IF_ERROR(ReadStreamHeader<T>(in, &magic, &count));
  if (magic != PforTraits<T>::kDeltaMagic) {
    return Status::IOError("pfor: bad magic");
  }
  std::vector<int64_t> bases;
  bases.reserve(block_index.size());
  U prev = 0;
  for (size_t b = 0; b * kPforBlock < count; ++b) {
    bases.push_back(static_cast<int64_t>(static_cast<T>(prev)));
    T block[kPforBlock];
    const char* err =
        DecodeIndexedBlock<T>(in, block_index, nullptr, count, b, block);
    if (err != nullptr) return Status::IOError(err);
    const size_t bn = std::min(kPforBlock, count - b * kPforBlock);
    for (size_t i = 0; i < bn; ++i) {
      prev += static_cast<U>(UnZigZag<T>(static_cast<U>(block[i])));
    }
  }
  return bases;
}

template <typename T>
Status PforDeltaDecodeRangeIndexed(const std::vector<uint8_t>& in,
                                   const std::vector<uint32_t>& block_index,
                                   const std::vector<int64_t>& bases,
                                   size_t start, size_t n, T* out) {
  return DecodeRangeStream(PforTraits<T>::kDeltaMagic, in, block_index,
                           &bases, start, n, out);
}

template <typename T>
Status PforDeltaGather(const std::vector<uint8_t>& in,
                       const std::vector<uint32_t>& block_index,
                       const std::vector<int64_t>& bases, const uint64_t* rows,
                       size_t n, T* out) {
  return GatherStream(PforTraits<T>::kDeltaMagic, in, block_index, &bases,
                      rows, n, out);
}

template <typename T>
Status PforDeltaEncode(const T* values, size_t n, std::vector<uint8_t>* out) {
  using U = Unsigned<T>;
  std::vector<T> zz(n);
  U prev = 0;
  for (size_t i = 0; i < n; ++i) {
    // Modular difference: wraparound-safe for arbitrary inputs.
    const U d = static_cast<U>(values[i]) - prev;
    zz[i] = static_cast<T>(ZigZag(static_cast<T>(d)));
    prev = static_cast<U>(values[i]);
  }
  return EncodeStream(PforTraits<T>::kDeltaMagic, zz.data(), n, out);
}

template <typename T>
Status PforDeltaDecode(const std::vector<uint8_t>& in, std::vector<T>* out) {
  using U = Unsigned<T>;
  MAMMOTH_RETURN_IF_ERROR(DecodeStream(PforTraits<T>::kDeltaMagic, in, out));
  U prev = 0;
  for (T& v : *out) {
    prev += static_cast<U>(UnZigZag<T>(static_cast<U>(v)));
    v = static_cast<T>(prev);
  }
  return Status::OK();
}

#define MAMMOTH_PFOR_INSTANTIATE(T)                                         \
  template Status PforEncode(const T*, size_t, std::vector<uint8_t>*);      \
  template Status PforDecode(const std::vector<uint8_t>&, std::vector<T>*); \
  template Result<std::vector<uint32_t>> PforBuildBlockIndex<T>(            \
      const std::vector<uint8_t>&);                                         \
  template Status PforDecodeRangeIndexed(const std::vector<uint8_t>&,       \
                                         const std::vector<uint32_t>&,      \
                                         size_t, size_t, T*);               \
  template Status PforGather(const std::vector<uint8_t>&,                   \
                             const std::vector<uint32_t>&, const uint64_t*, \
                             size_t, T*);                                   \
  template Status PforDeltaEncode(const T*, size_t, std::vector<uint8_t>*); \
  template Status PforDeltaDecode(const std::vector<uint8_t>&,              \
                                  std::vector<T>*);                         \
  template Result<std::vector<int64_t>> PforDeltaBuildBases<T>(             \
      const std::vector<uint8_t>&, const std::vector<uint32_t>&);           \
  template Status PforDeltaDecodeRangeIndexed(                              \
      const std::vector<uint8_t>&, const std::vector<uint32_t>&,            \
      const std::vector<int64_t>&, size_t, size_t, T*);                     \
  template Status PforDeltaGather(                                          \
      const std::vector<uint8_t>&, const std::vector<uint32_t>&,            \
      const std::vector<int64_t>&, const uint64_t*, size_t, T*);

MAMMOTH_PFOR_INSTANTIATE(int32_t)
MAMMOTH_PFOR_INSTANTIATE(int64_t)

#undef MAMMOTH_PFOR_INSTANTIATE

}  // namespace mammoth::compress
