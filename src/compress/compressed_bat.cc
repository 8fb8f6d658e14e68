#include "compress/compressed_bat.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "compress/bitpack.h"
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

Result<CompressedBat> CompressedBat::Compress(const BatPtr& b, Codec codec) {
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
      case Codec::kPfor: {
        MAMMOTH_RETURN_IF_ERROR(PforEncode(v, out.count_, &out.bytes_));
        MAMMOTH_ASSIGN_OR_RETURN(out.block_index_,
                                 PforBuildBlockIndex<T>(out.bytes_));
        break;
      }
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

Result<CompressedBat> CompressedBat::CompressBest(const BatPtr& b) {
  Result<CompressedBat> best = Status::Internal("no codec succeeded");
  for (Codec c : {Codec::kPfor, Codec::kPforDelta, Codec::kPdict,
                  Codec::kRle}) {
    Result<CompressedBat> attempt = Compress(b, c);
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
  return best;
}

Result<BatPtr> CompressedBat::Decode() const {
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

Status CompressedBat::FillCache() const {
  std::call_once(cache_->once, [this] {
    Result<BatPtr> full = Decode();
    if (full.ok()) {
      cache_->bat = *std::move(full);
      cache_->bytes.store(count_ * width(), std::memory_order_relaxed);
    } else {
      cache_->status = full.status();
    }
  });
  return cache_->status;
}

Result<const CompressedBat::RleRuns*> CompressedBat::RunsView() const {
  if (codec_ != Codec::kRle) {
    return Status::Unsupported("runs view: column is not RLE");
  }
  std::call_once(runs_cache_->once, [this] {
    // Walk the (value, run) pairs once; the view replaces O(rows) decodes
    // with O(runs) folds in the compressed kernels.
    RleRuns& runs = runs_cache_->runs;
    uint64_t row = 0;
    runs_cache_->status = VisitWidth(type_, [&](auto zero) {
      using T = decltype(zero);
      return RleForEachRun<T>(bytes_, [&](T v, uint32_t run) {
        runs.values.push_back(v);
        runs.starts.push_back(row);
        row += run;
      });
    });
    runs.starts.push_back(row);
  });
  MAMMOTH_RETURN_IF_ERROR(runs_cache_->status);
  return &runs_cache_->runs;
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

Result<BatPtr> CompressedBat::DecodedBat() const {
  MAMMOTH_RETURN_IF_ERROR(FillCache());
  return cache_->bat;
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
    case Codec::kPdict:  // int32 only: Compress and Deserialize refuse int64
      return PdictDecodeRange(bytes_, start, n, static_cast<int32_t*>(out));
    case Codec::kPforDelta:
    case Codec::kRle: {
      // No random access (running prefix / variable-length runs): decode
      // once into the shared cache and serve ranges from it.
      MAMMOTH_RETURN_IF_ERROR(FillCache());
      const auto* base =
          static_cast<const uint8_t*>(cache_->bat->tail().raw_data());
      std::memcpy(out, base + start * width(), n * width());
      return Status::OK();
    }
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
        if (index.ok() && codec_ == Codec::kPfor) {
          block_index_ = *std::move(index);
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
      case Codec::kRle:
        st = RleForEachRun<T>(bytes_, [](T, uint32_t) {});
        break;
    }
    if (st.ok()) return st;
    return Status::Corruption("compressed bat: " + st.message());
  });
}

}  // namespace mammoth::compress
