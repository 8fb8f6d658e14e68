#include "compress/compressed_bat.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "compress/bitpack.h"
#include "compress/compressed_kernels.h"
#include "compress/pdict.h"
#include "compress/pfor.h"
#include "compress/rle.h"

namespace mammoth::compress {

namespace {

template <typename T>
void BlockStats(const T* v, size_t n, std::vector<int64_t>* mins,
                std::vector<int64_t>* maxes) {
  mins->clear();
  maxes->clear();
  for (size_t start = 0; start < n; start += CompressedBat::kStatBlockRows) {
    const size_t bn = std::min(CompressedBat::kStatBlockRows, n - start);
    T lo = v[start], hi = v[start];
    for (size_t i = 1; i < bn; ++i) {
      lo = std::min(lo, v[start + i]);
      hi = std::max(hi, v[start + i]);
    }
    mins->push_back(static_cast<int64_t>(lo));
    maxes->push_back(static_cast<int64_t>(hi));
  }
}

void PutBytes(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}

template <typename T>
void PutInt(std::string* out, T v) {
  PutBytes(out, &v, sizeof(v));
}

struct ByteReader {
  const uint8_t* p;
  const uint8_t* end;
  explicit ByteReader(std::string_view s)
      : p(reinterpret_cast<const uint8_t*>(s.data())),
        end(reinterpret_cast<const uint8_t*>(s.data()) + s.size()) {}
  template <typename T>
  bool Read(T* v) {
    if (end - p < static_cast<ptrdiff_t>(sizeof(T))) return false;
    std::memcpy(v, p, sizeof(T));
    p += sizeof(T);
    return true;
  }
};

constexpr uint32_t kCbatMagic = 0x31544243;  // "CBT1"

/// Calls fn with a zero of the column's value type: the one place each
/// CompressedBat body branches on the width.
template <typename Fn>
auto VisitWidth(PhysType t, Fn&& fn) {
  return t == PhysType::kInt32 ? fn(int32_t{0}) : fn(int64_t{0});
}

/// Magic a `codec` stream over T opens with; 0 when there is no such codec.
template <typename T>
uint32_t StreamMagic(Codec codec) {
  switch (codec) {
    case Codec::kPfor:
      return PforTraits<T>::kMagic;
    case Codec::kPforDelta:
      return PforTraits<T>::kDeltaMagic;
    case Codec::kPdict:
      return std::is_same_v<T, int32_t> ? kPdictMagic : 0;
    case Codec::kRle:
      return kRleMagic<T>;
  }
  return 0;
}

}  // namespace

const char* CodecName(Codec c) {
  switch (c) {
    case Codec::kPfor:
      return "pfor";
    case Codec::kPforDelta:
      return "pfor-delta";
    case Codec::kPdict:
      return "pdict";
    case Codec::kRle:
      return "rle";
  }
  return "?";
}

Result<CompressedBat> CompressedBat::Encode(const BatPtr& b, Codec codec) {
  if (b == nullptr) {
    return Status::InvalidArgument("compress: null input BAT");
  }
  if (b->type() != PhysType::kInt32 && b->type() != PhysType::kInt64) {
    return Status::Unsupported(std::string("compress: bat[:") +
                               TypeName(b->type()) +
                               "] has no codec (int/bigint only)");
  }
  if (b->IsDenseTail()) {
    return Status::Unsupported("compress: dense virtual tail");
  }
  CompressedBat out;
  out.codec_ = codec;
  out.type_ = b->type();
  out.count_ = b->Count();
  out.props_ = b->props();
  MAMMOTH_RETURN_IF_ERROR(VisitWidth(out.type_, [&](auto zero) -> Status {
    using T = decltype(zero);
    const T* v = b->TailData<T>();
    switch (codec) {
      case Codec::kPfor:
        MAMMOTH_RETURN_IF_ERROR(PforEncode(v, out.count_, &out.bytes_));
        break;
      case Codec::kPforDelta:
        MAMMOTH_RETURN_IF_ERROR(PforDeltaEncode(v, out.count_, &out.bytes_));
        break;
      case Codec::kPdict:
        if constexpr (std::is_same_v<T, int32_t>) {
          MAMMOTH_RETURN_IF_ERROR(PdictEncode(v, out.count_, &out.bytes_));
          break;
        }
        return Status::Unsupported("compress: pdict has no int64 variant");
      case Codec::kRle:
        MAMMOTH_RETURN_IF_ERROR(RleEncode(v, out.count_, &out.bytes_));
        break;
    }
    BlockStats(v, out.count_, &out.stat_min_, &out.stat_max_);
    return Status::OK();
  }));
  return out;
}

Result<CompressedBat> CompressedBat::Compress(const BatPtr& b, Codec codec) {
  MAMMOTH_ASSIGN_OR_RETURN(CompressedBat out, Encode(b, codec));
  MAMMOTH_RETURN_IF_ERROR(out.CheckStream());
  return out;
}

Result<CompressedBat> CompressedBat::CompressBest(const BatPtr& b) {
  Result<CompressedBat> best = Status::Internal("no codec succeeded");
  for (Codec c : {Codec::kPfor, Codec::kPforDelta, Codec::kPdict,
                  Codec::kRle}) {
    Result<CompressedBat> attempt = Encode(b, c);
    if (!attempt.ok()) {
      // Unsupported *types* fail every codec identically — surface that
      // instead of "no codec succeeded".
      if (attempt.status().code() == StatusCode::kUnsupported &&
          c == Codec::kPfor) {
        return attempt;
      }
      continue;  // e.g. pdict on high cardinality
    }
    if (!best.ok() ||
        attempt->CompressedBytes() < best->CompressedBytes()) {
      best = std::move(attempt);
    }
  }
  // Only the winner pays for its indexes.
  if (best.ok()) MAMMOTH_RETURN_IF_ERROR(best->CheckStream());
  return best;
}

Result<BatPtr> CompressedBat::Decode() const {
  stats::ProjectFull();
  BatPtr b = Bat::New(type_);
  MAMMOTH_RETURN_IF_ERROR(VisitWidth(type_, [&](auto zero) -> Status {
    using T = decltype(zero);
    std::vector<T> values;
    switch (codec_) {
      case Codec::kPfor:
        MAMMOTH_RETURN_IF_ERROR(PforDecode(bytes_, &values));
        break;
      case Codec::kPforDelta:
        MAMMOTH_RETURN_IF_ERROR(PforDeltaDecode(bytes_, &values));
        break;
      case Codec::kPdict:
        if constexpr (std::is_same_v<T, int32_t>) {
          MAMMOTH_RETURN_IF_ERROR(PdictDecode(bytes_, &values));
          break;
        }
        return Status::Unsupported("compress: pdict has no int64 variant");
      case Codec::kRle:
        MAMMOTH_RETURN_IF_ERROR(RleDecode(bytes_, &values));
        break;
    }
    if (values.size() != count_) {
      return Status::Corruption("compressed bat: count drifted on decode");
    }
    b->AppendRaw(values.data(), values.size());
    return Status::OK();
  }));
  b->mutable_props() = props_;
  return b;
}

Result<const CompressedBat::RleRuns*> CompressedBat::RunsView() const {
  if (codec_ != Codec::kRle) {
    return Status::Unsupported("runs view: column is not RLE");
  }
  return &runs_;
}

size_t CompressedBat::IndexBytes() const {
  return block_index_.size() * sizeof(uint32_t) +
         delta_bases_.size() * sizeof(int64_t) +
         runs_.values.size() * sizeof(int64_t) +
         runs_.starts.size() * sizeof(uint64_t);
}

Result<CompressedBat::DictView> CompressedBat::PdictView() const {
  if (codec_ != Codec::kPdict) {
    return Status::Unsupported("dict view: column is not PDICT");
  }
  if (bytes_.size() < 16) return Status::IOError("pdict: truncated header");
  DictView view;
  uint32_t magic = 0, count = 0;
  std::memcpy(&magic, bytes_.data(), 4);
  std::memcpy(&count, bytes_.data() + 4, 4);
  std::memcpy(&view.dsize, bytes_.data() + 8, 4);
  std::memcpy(&view.bits, bytes_.data() + 12, 4);
  if (magic != kPdictMagic || count != count_ || view.bits > 32) {
    return Status::IOError("pdict: bad header");
  }
  const size_t dict_end = 16 + static_cast<size_t>(view.dsize) * 4;
  // +8: code unpacking issues 8-byte loads into the encoder's slack.
  if (bytes_.size() <
      dict_end + PackedBytes(count_, static_cast<int>(view.bits)) + 8) {
    return Status::IOError("pdict: truncated");
  }
  view.dict = reinterpret_cast<const int32_t*>(bytes_.data() + 16);
  view.codes = bytes_.data() + dict_end;
  view.sorted = std::is_sorted(view.dict, view.dict + view.dsize);
  return view;
}

Status CompressedBat::DecodeRange(size_t start, size_t n,
                                  int32_t* out) const {
  if (type_ != PhysType::kInt32) {
    return Status::TypeMismatch("decode range: column is not bat[:int]");
  }
  return DecodeRangeRaw(start, n, out);
}

Status CompressedBat::DecodeRange(size_t start, size_t n,
                                  int64_t* out) const {
  if (type_ != PhysType::kInt64) {
    return Status::TypeMismatch("decode range: column is not bat[:long]");
  }
  return DecodeRangeRaw(start, n, out);
}

Status CompressedBat::DecodeRangeRaw(size_t start, size_t n,
                                     void* out) const {
  if (n == 0) return Status::OK();  // empty range: no-op at any start
  if (start >= count_ || n > count_ - start) {
    return Status::OutOfRange("decode range beyond column");
  }
  switch (codec_) {
    case Codec::kPfor:
      return VisitWidth(type_, [&](auto zero) {
        using T = decltype(zero);
        return PforDecodeRangeIndexed(bytes_, block_index_, start, n,
                                      static_cast<T*>(out));
      });
    case Codec::kPforDelta:
      return VisitWidth(type_, [&](auto zero) {
        using T = decltype(zero);
        return PforDeltaDecodeRangeIndexed(bytes_, block_index_, delta_bases_,
                                           start, n, static_cast<T*>(out));
      });
    case Codec::kPdict:  // int32 only: Compress and Deserialize refuse int64
      return PdictDecodeRange(bytes_, start, n, static_cast<int32_t*>(out));
    case Codec::kRle:
      return VisitWidth(type_, [&](auto zero) {
        using T = decltype(zero);
        T* dst = static_cast<T*>(out);
        const std::vector<uint64_t>& starts = runs_.starts;
        // The run holding `start`: the last whose first row is <= start.
        size_t r = static_cast<size_t>(
            std::upper_bound(starts.begin(), starts.end(), start) -
            starts.begin() - 1);
        for (size_t row = start; row < start + n; ++r) {
          const size_t end = std::min<size_t>(starts[r + 1], start + n);
          std::fill(dst + (row - start), dst + (end - start),
                    static_cast<T>(runs_.values[r]));
          row = end;
        }
        return Status::OK();
      });
  }
  return Status::Internal("unreachable");
}

Status CompressedBat::Gather(const Oid* rows, size_t n, void* out) const {
  switch (codec_) {
    case Codec::kPfor:
      return VisitWidth(type_, [&](auto zero) {
        using T = decltype(zero);
        return PforGather(bytes_, block_index_, rows, n, static_cast<T*>(out));
      });
    case Codec::kPforDelta:
      return VisitWidth(type_, [&](auto zero) {
        using T = decltype(zero);
        return PforDeltaGather(bytes_, block_index_, delta_bases_, rows, n,
                               static_cast<T*>(out));
      });
    case Codec::kPdict:
      return PdictGather(bytes_, rows, n, static_cast<int32_t*>(out));
    case Codec::kRle:
      return VisitWidth(type_, [&](auto zero) -> Status {
        using T = decltype(zero);
        T* dst = static_cast<T*>(out);
        const std::vector<uint64_t>& starts = runs_.starts;
        // Walk forward from the previous row's run; a row outside the
        // run or the next one binary-searches, so sorted rows cost
        // O(n + runs) and unsorted ones O(n log runs).
        size_t r = 0;
        for (size_t i = 0; i < n; ++i) {
          const Oid row = rows[i];
          if (row >= count_) {
            return Status::OutOfRange("rle: row beyond column");
          }
          if (row < starts[r] || row >= starts[r + 1]) {
            if (row >= starts[r + 1] && r + 2 < starts.size() &&
                row < starts[r + 2]) {
              ++r;
            } else {
              r = static_cast<size_t>(
                  std::upper_bound(starts.begin(), starts.end(), row) -
                  starts.begin() - 1);
            }
          }
          dst[i] = static_cast<T>(runs_.values[r]);
        }
        return Status::OK();
      });
  }
  return Status::Internal("unreachable");
}

void CompressedBat::Serialize(std::string* out) const {
  PutInt<uint32_t>(out, kCbatMagic);
  PutInt<uint8_t>(out, static_cast<uint8_t>(codec_));
  PutInt<uint8_t>(out, static_cast<uint8_t>(type_));
  const uint8_t props = (props_.sorted ? 1 : 0) | (props_.revsorted ? 2 : 0) |
                        (props_.key ? 4 : 0);
  PutInt<uint8_t>(out, props);
  PutInt<uint8_t>(out, 0);  // reserved
  PutInt<uint64_t>(out, count_);
  PutInt<uint32_t>(out, static_cast<uint32_t>(stat_min_.size()));
  for (size_t i = 0; i < stat_min_.size(); ++i) {
    PutInt<int64_t>(out, stat_min_[i]);
    PutInt<int64_t>(out, stat_max_[i]);
  }
  PutInt<uint64_t>(out, bytes_.size());
  PutBytes(out, bytes_.data(), bytes_.size());
}

Result<CompressedBat> CompressedBat::Deserialize(std::string_view in) {
  ByteReader r(in);
  uint32_t magic = 0;
  uint8_t codec = 0, type = 0, props = 0, reserved = 0;
  uint64_t count = 0, stream_bytes = 0;
  uint32_t nstats = 0;
  if (!r.Read(&magic) || magic != kCbatMagic) {
    return Status::Corruption("compressed bat: bad magic");
  }
  if (!r.Read(&codec) || codec > static_cast<uint8_t>(Codec::kRle) ||
      !r.Read(&type) || !r.Read(&props) || !r.Read(&reserved) ||
      !r.Read(&count) || !r.Read(&nstats)) {
    return Status::Corruption("compressed bat: truncated header");
  }
  const PhysType t = static_cast<PhysType>(type);
  if (t != PhysType::kInt32 && t != PhysType::kInt64) {
    return Status::Corruption("compressed bat: bad column type");
  }
  const uint64_t want_stats =
      (count + CompressedBat::kStatBlockRows - 1) /
      CompressedBat::kStatBlockRows;
  if (nstats != want_stats) {
    return Status::Corruption("compressed bat: stat block count mismatch");
  }
  CompressedBat out;
  out.codec_ = static_cast<Codec>(codec);
  out.type_ = t;
  out.count_ = count;
  out.props_.sorted = (props & 1) != 0;
  out.props_.revsorted = (props & 2) != 0;
  out.props_.key = (props & 4) != 0;
  out.stat_min_.resize(nstats);
  out.stat_max_.resize(nstats);
  for (uint32_t i = 0; i < nstats; ++i) {
    if (!r.Read(&out.stat_min_[i]) || !r.Read(&out.stat_max_[i])) {
      return Status::Corruption("compressed bat: truncated stats");
    }
  }
  if (!r.Read(&stream_bytes) ||
      stream_bytes > static_cast<uint64_t>(r.end - r.p)) {
    return Status::Corruption("compressed bat: truncated stream");
  }
  out.bytes_.assign(r.p, r.p + stream_bytes);
  MAMMOTH_RETURN_IF_ERROR(out.CheckStream());
  return out;
}

Status CompressedBat::CheckStream() {
  return VisitWidth(type_, [this](auto zero) -> Status {
    using T = decltype(zero);
    // Every codec stream opens with (u32 magic, u32 count).
    uint32_t magic = 0, count = 0;
    if (bytes_.size() >= 8) {
      std::memcpy(&magic, bytes_.data(), 4);
      std::memcpy(&count, bytes_.data() + 4, 4);
    }
    const uint32_t want = StreamMagic<T>(codec_);
    if (want == 0 || magic != want) {
      return Status::Corruption(
          "compressed bat: stream does not match codec and type");
    }
    if (count != count_) {
      return Status::Corruption("compressed bat: stream count mismatch");
    }
    Status st = Status::OK();
    switch (codec_) {
      case Codec::kPfor:
      case Codec::kPforDelta: {
        Result<std::vector<uint32_t>> index = PforBuildBlockIndex<T>(bytes_);
        st = index.status();
        if (!index.ok()) break;
        block_index_ = *std::move(index);
        if (codec_ == Codec::kPforDelta) {
          Result<std::vector<int64_t>> bases =
              PforDeltaBuildBases<T>(bytes_, block_index_);
          st = bases.status();
          if (bases.ok()) delta_bases_ = *std::move(bases);
        }
        break;
      }
      case Codec::kPdict: {
        Result<DictView> view = PdictView();
        st = view.status();
        if (view.ok() && !CodesBelow(view->codes, count_,
                                     static_cast<int>(view->bits),
                                     view->dsize)) {
          st = Status::IOError("pdict: code beyond dictionary");
        }
        break;
      }
      case Codec::kRle: {
        // Parse the run list once; it replaces O(rows) decodes with
        // O(runs) folds and walks in the kernels and range decodes.
        runs_ = RleRuns{};
        uint64_t row = 0;
        st = RleForEachRun<T>(bytes_, [&](T v, uint32_t run) {
          runs_.values.push_back(v);
          runs_.starts.push_back(row);
          row += run;
        });
        runs_.starts.push_back(row);
        break;
      }
    }
    if (st.ok()) return st;
    return Status::Corruption("compressed bat: " + st.message());
  });
}

}  // namespace mammoth::compress
