#include "server/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "compress/pdict.h"
#include "compress/rle.h"
#include "core/bat.h"
#include "core/string_heap.h"

namespace mammoth::server {

namespace {

// --- little-endian primitives ---------------------------------------------

template <typename T>
void AppendInt(std::string* out, T v) {
  char buf[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) & 0xff);
  }
  out->append(buf, sizeof(T));
}

/// Sequential bounds-checked reader over a payload. Every Read* returns
/// false once the payload is exhausted; callers turn that into one
/// "truncated" error instead of checking lengths inline.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  bool ReadInt(T* v) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    uint64_t acc = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      acc |= static_cast<uint64_t>(
                 static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += sizeof(T);
    *v = static_cast<T>(acc);
    return true;
  }

  bool ReadBytes(size_t n, std::string_view* out) {
    if (data_.size() - pos_ < n) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("wire: truncated ") + what);
}

void AppendString(std::string* out, std::string_view s) {
  // Clamp length prefix AND bytes together: a name over the u16 limit
  // ships truncated but decodable, never a corrupt payload.
  if (s.size() > UINT16_MAX) s = s.substr(0, UINT16_MAX);
  AppendInt<uint16_t>(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}

bool ReadString(Reader* r, std::string* out) {
  uint16_t len = 0;
  std::string_view bytes;
  if (!r->ReadInt(&len) || !r->ReadBytes(len, &bytes)) return false;
  out->assign(bytes);
  return true;
}

bool ValidType(uint8_t t) {
  return t <= static_cast<uint8_t>(PhysType::kStr);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  AppendInt<uint32_t>(&out, kMagic);
  AppendInt<uint16_t>(&out, kWireVersion);
  AppendInt<uint8_t>(&out, static_cast<uint8_t>(type));
  AppendInt<uint8_t>(&out, 0);  // reserved
  AppendInt<uint32_t>(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

Result<size_t> DecodeFrame(const char* data, size_t size, Frame* out) {
  if (size < kHeaderBytes) return size_t{0};
  Reader r(std::string_view(data, kHeaderBytes));
  uint32_t magic = 0, length = 0;
  uint16_t version = 0;
  uint8_t type = 0, reserved = 0;
  r.ReadInt(&magic);
  r.ReadInt(&version);
  r.ReadInt(&type);
  r.ReadInt(&reserved);
  r.ReadInt(&length);
  if (magic != kMagic) return Status::InvalidArgument("wire: bad magic");
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: protocol version " +
                                   std::to_string(version) + " != " +
                                   std::to_string(kWireVersion));
  }
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kReplSnapEnd)) {
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(type));
  }
  if (reserved != 0) {
    return Status::InvalidArgument("wire: nonzero reserved byte");
  }
  if (length > kMaxPayloadBytes) {
    return Status::InvalidArgument("wire: oversized payload (" +
                                   std::to_string(length) + " bytes)");
  }
  if (size - kHeaderBytes < length) return size_t{0};
  out->type = static_cast<FrameType>(type);
  out->payload.assign(data + kHeaderBytes, length);
  return kHeaderBytes + static_cast<size_t>(length);
}

// --- Hello -----------------------------------------------------------------

std::string EncodeHello(const HelloInfo& hello) {
  std::string out;
  AppendInt<uint64_t>(&out, hello.session_id);
  AppendString(&out, hello.server_name);
  AppendInt<uint32_t>(&out, hello.caps);
  return out;
}

Result<HelloInfo> DecodeHello(std::string_view payload) {
  Reader r(payload);
  HelloInfo hello;
  if (!r.ReadInt(&hello.session_id) || !ReadString(&r, &hello.server_name)) {
    return Truncated("hello");
  }
  // Capability bits were appended later; a Hello without them (an older
  // server) decodes with caps = 0.
  if (!r.done() && !r.ReadInt(&hello.caps)) return Truncated("hello");
  if (!r.done()) return Truncated("hello");
  return hello;
}

// --- Caps ------------------------------------------------------------------

std::string EncodeCaps(uint32_t caps) {
  std::string out;
  AppendInt<uint32_t>(&out, caps);
  return out;
}

Result<uint32_t> DecodeCaps(std::string_view payload) {
  Reader r(payload);
  uint32_t caps = 0;
  if (!r.ReadInt(&caps) || !r.done()) return Truncated("caps");
  return caps;
}

// --- Sequence numbers --------------------------------------------------------

std::string PrependSeq(uint32_t seq, std::string_view rest) {
  std::string out;
  out.reserve(sizeof(uint32_t) + rest.size());
  AppendInt<uint32_t>(&out, seq);
  out.append(rest);
  return out;
}

Result<SeqPayload> SplitSeq(std::string_view payload) {
  Reader r(payload);
  SeqPayload sp;
  if (!r.ReadInt(&sp.seq)) return Truncated("sequence number");
  sp.rest = payload.substr(sizeof(uint32_t));
  if (sp.seq == 0) {
    // 0 is reserved so "no sequence number" is never a valid number;
    // rejecting it here covers every seq-framed type at once.
    return Status::InvalidArgument("wire: sequence number 0 is reserved");
  }
  return sp;
}

// --- Prepare / Execute -------------------------------------------------------

std::string EncodePrepared(uint32_t seq, const PreparedReply& reply,
                           uint32_t caps) {
  std::string out;
  AppendInt<uint32_t>(&out, seq);
  AppendInt<uint64_t>(&out, reply.stmt_id);
  AppendInt<uint32_t>(&out, reply.nparams);
  if ((caps & kWireCapParamTypes) != 0) {
    // Typed parameter metadata is strictly appended, and only for
    // sessions that negotiated it: an old client's exact-size decoder
    // still sees the original body.
    AppendInt<uint32_t>(&out, static_cast<uint32_t>(reply.param_types.size()));
    out.append(reinterpret_cast<const char*>(reply.param_types.data()),
               reply.param_types.size());
  }
  return out;
}

Result<PreparedReply> DecodePrepared(std::string_view rest) {
  Reader r(rest);
  PreparedReply reply;
  if (!r.ReadInt(&reply.stmt_id) || !r.ReadInt(&reply.nparams)) {
    return Truncated("prepared reply");
  }
  if (!r.done()) {
    // Optional typed-parameter suffix (kWireCapParamTypes sessions).
    uint32_t ntypes = 0;
    std::string_view bytes;
    if (!r.ReadInt(&ntypes) || ntypes > reply.nparams ||
        !r.ReadBytes(ntypes, &bytes) || !r.done()) {
      return Truncated("prepared reply");
    }
    for (const char b : bytes) {
      const uint8_t t = static_cast<uint8_t>(b);
      if (t > static_cast<uint8_t>(ParamType::kStr)) {
        return Status::InvalidArgument("wire: unknown parameter type " +
                                       std::to_string(t));
      }
      reply.param_types.push_back(t);
    }
  }
  return reply;
}

namespace {

/// Typed-parameter kind tags of the kExecute body.
enum class ParamKind : uint8_t { kNil = 0, kInt = 1, kReal = 2, kStr = 3 };

}  // namespace

std::string EncodeExecute(uint32_t seq, uint64_t stmt_id,
                          const std::vector<Value>& params) {
  std::string out;
  AppendInt<uint32_t>(&out, seq);
  AppendInt<uint64_t>(&out, stmt_id);
  AppendInt<uint16_t>(&out, static_cast<uint16_t>(params.size()));
  for (const Value& v : params) {
    if (v.is_int()) {
      AppendInt<uint8_t>(&out, static_cast<uint8_t>(ParamKind::kInt));
      AppendInt<uint64_t>(&out, static_cast<uint64_t>(v.AsInt()));
    } else if (v.is_real()) {
      AppendInt<uint8_t>(&out, static_cast<uint8_t>(ParamKind::kReal));
      uint64_t bits = 0;
      const double d = v.AsReal();
      std::memcpy(&bits, &d, sizeof(bits));
      AppendInt<uint64_t>(&out, bits);
    } else if (v.is_str()) {
      AppendInt<uint8_t>(&out, static_cast<uint8_t>(ParamKind::kStr));
      AppendInt<uint32_t>(&out, static_cast<uint32_t>(v.AsStr().size()));
      out.append(v.AsStr());
    } else {
      // nil and unsubstituted placeholders both ship as nil; the engine
      // rejects nils during substitution with a typed error.
      AppendInt<uint8_t>(&out, static_cast<uint8_t>(ParamKind::kNil));
    }
  }
  return out;
}

Result<ExecuteRequest> DecodeExecute(std::string_view rest) {
  Reader r(rest);
  ExecuteRequest req;
  uint16_t nparams = 0;
  if (!r.ReadInt(&req.stmt_id) || !r.ReadInt(&nparams)) {
    return Truncated("execute request");
  }
  req.params.reserve(nparams);
  for (uint16_t i = 0; i < nparams; ++i) {
    uint8_t kind = 0;
    if (!r.ReadInt(&kind)) return Truncated("execute parameter");
    switch (static_cast<ParamKind>(kind)) {
      case ParamKind::kNil:
        req.params.push_back(Value::Nil());
        break;
      case ParamKind::kInt: {
        uint64_t bits = 0;
        if (!r.ReadInt(&bits)) return Truncated("execute parameter");
        req.params.push_back(Value::Int(static_cast<int64_t>(bits)));
        break;
      }
      case ParamKind::kReal: {
        uint64_t bits = 0;
        if (!r.ReadInt(&bits)) return Truncated("execute parameter");
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        req.params.push_back(Value::Real(d));
        break;
      }
      case ParamKind::kStr: {
        uint32_t len = 0;
        std::string_view bytes;
        if (!r.ReadInt(&len) || !r.ReadBytes(len, &bytes)) {
          return Truncated("execute parameter");
        }
        req.params.push_back(Value::Str(std::string(bytes)));
        break;
      }
      default:
        return Status::InvalidArgument("wire: unknown parameter kind " +
                                       std::to_string(kind));
    }
  }
  if (!r.done()) {
    return Status::InvalidArgument("wire: trailing bytes after execute");
  }
  return req;
}

// --- Requests ----------------------------------------------------------------

Result<WireRequest> DecodeRequest(const Frame& frame) {
  WireRequest request;
  switch (frame.type) {
    case FrameType::kQuery:
      request.sql = frame.payload;
      return request;
    case FrameType::kQuerySeq: {
      MAMMOTH_ASSIGN_OR_RETURN(SeqPayload sp, SplitSeq(frame.payload));
      request.seq = sp.seq;
      request.sql = std::string(sp.rest);
      return request;
    }
    case FrameType::kExecute: {
      MAMMOTH_ASSIGN_OR_RETURN(SeqPayload sp, SplitSeq(frame.payload));
      MAMMOTH_ASSIGN_OR_RETURN(ExecuteRequest req, DecodeExecute(sp.rest));
      request.seq = sp.seq;
      request.is_execute = true;
      request.stmt_id = req.stmt_id;
      request.params = std::move(req.params);
      return request;
    }
    default:
      return Status::InvalidArgument("unexpected frame type from client");
  }
}

Status SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const char* why = n < 0 ? std::strerror(errno) : "connection lost";
      return Status::IOError(std::string("send(): ") + why);
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

// --- Error -----------------------------------------------------------------

std::string EncodeError(const Status& error) {
  std::string out;
  AppendInt<uint8_t>(&out, static_cast<uint8_t>(error.code()));
  AppendInt<uint32_t>(&out, static_cast<uint32_t>(error.message().size()));
  out.append(error.message());
  return out;
}

Result<WireError> DecodeError(std::string_view payload) {
  Reader r(payload);
  uint8_t code = 0;
  uint32_t len = 0;
  std::string_view msg;
  if (!r.ReadInt(&code) || !r.ReadInt(&len) || !r.ReadBytes(len, &msg) ||
      !r.done()) {
    return Truncated("error frame");
  }
  if (code > static_cast<uint8_t>(StatusCode::kConflict)) {
    return Status::InvalidArgument("wire: unknown status code " +
                                   std::to_string(code));
  }
  WireError e;
  e.code = static_cast<StatusCode>(code);
  e.message.assign(msg);
  return e;
}

// --- Result ----------------------------------------------------------------

namespace {

/// Minimum rows before a result column is worth codec probing: tiny
/// results ship raw (the probe costs more than the bytes saved).
constexpr size_t kMinCompressRows = 1024;

/// Tries the codecs applicable to the column type and returns the best
/// encoding strictly smaller than the raw tail, or kRaw (empty stream).
ColumnEncoding ProbeResultCodec(const BatPtr& col, size_t nrows,
                                std::vector<uint8_t>* stream) {
  const size_t raw_bytes = nrows * TypeWidth(col->type());
  ColumnEncoding best = ColumnEncoding::kRaw;
  std::vector<uint8_t> attempt;
  if (col->type() == PhysType::kInt32) {
    if (compress::RleEncode(col->TailData<int32_t>(), nrows, &attempt).ok() &&
        attempt.size() < raw_bytes) {
      best = ColumnEncoding::kRle;
      *stream = std::move(attempt);
    }
    attempt.clear();
    if (compress::PdictEncode(col->TailData<int32_t>(), nrows, &attempt)
            .ok() &&
        attempt.size() < raw_bytes &&
        (best == ColumnEncoding::kRaw || attempt.size() < stream->size())) {
      best = ColumnEncoding::kPdict;
      *stream = std::move(attempt);
    }
  } else if (col->type() == PhysType::kInt64) {
    if (compress::Rle64Encode(col->TailData<int64_t>(), nrows, &attempt)
            .ok() &&
        attempt.size() < raw_bytes) {
      best = ColumnEncoding::kRle;
      *stream = std::move(attempt);
    }
  }
  return best;
}

}  // namespace

Result<std::string> EncodeResult(const mal::QueryResult& result,
                                 uint32_t caps,
                                 uint64_t* wire_bytes_saved) {
  std::string out;
  AppendInt<uint32_t>(&out, static_cast<uint32_t>(result.columns.size()));
  const size_t nrows = result.RowCount();
  AppendInt<uint64_t>(&out, nrows);
  for (size_t c = 0; c < result.columns.size(); ++c) {
    const BatPtr& col = result.columns[c];
    if (col == nullptr) return Status::Internal("wire: null result column");
    if (col->Count() != nrows) {
      return Status::Internal("wire: misaligned result columns");
    }
    AppendString(&out, c < result.names.size() ? result.names[c] : "");
    AppendInt<uint8_t>(&out, static_cast<uint8_t>(col->type()));
    // Compressed shipping: only into sessions that negotiated it, only
    // for integer tails big enough to matter, and only when the codec
    // image actually beats the raw bytes.
    std::vector<uint8_t> stream;
    ColumnEncoding enc = ColumnEncoding::kRaw;
    if ((caps & kWireCapCompressedResults) != 0 && !col->IsDenseTail() &&
        nrows >= kMinCompressRows) {
      enc = ProbeResultCodec(col, nrows, &stream);
    }
    if (enc != ColumnEncoding::kRaw) {
      AppendInt<uint8_t>(&out, static_cast<uint8_t>(enc));
      AppendInt<uint64_t>(&out, stream.size());
      out.append(reinterpret_cast<const char*>(stream.data()), stream.size());
      if (wire_bytes_saved != nullptr) {
        *wire_bytes_saved +=
            nrows * TypeWidth(col->type()) - stream.size();
      }
      continue;
    }
    AppendInt<uint8_t>(&out, col->IsDenseTail()
                                 ? static_cast<uint8_t>(ColumnEncoding::kDense)
                                 : static_cast<uint8_t>(ColumnEncoding::kRaw));
    if (col->IsDenseTail()) {
      AppendInt<uint64_t>(&out, col->tseqbase());
    } else if (col->type() == PhysType::kStr) {
      // Re-intern into a compact per-column heap: the slice carries
      // exactly this column's strings, and the offsets we ship are
      // offsets into that slice, so the decoder restores it as-is.
      StringHeap slice;
      std::string offsets;
      offsets.reserve(nrows * sizeof(uint64_t));
      for (size_t i = 0; i < nrows; ++i) {
        AppendInt<uint64_t>(&offsets, slice.Put(col->StringAt(i)));
      }
      AppendInt<uint64_t>(&out, slice.ByteSize());
      out.append(slice.RawBytes(), slice.ByteSize());
      out.append(offsets);
    } else {
      AppendInt<uint64_t>(&out, 0);  // heap_len: none for fixed width
      out.append(
          static_cast<const char*>(
              static_cast<const void*>(col->tail().raw_data())),
          nrows * TypeWidth(col->type()));
    }
  }
  return out;
}

Result<mal::QueryResult> DecodeResult(std::string_view payload) {
  Reader r(payload);
  uint32_t ncols = 0;
  uint64_t nrows = 0;
  if (!r.ReadInt(&ncols) || !r.ReadInt(&nrows)) return Truncated("result");
  // nrows comes off the wire: bound it before any size arithmetic. With
  // nrows <= kMaxPayloadBytes and element widths <= 8, the per-column
  // `nrows * width` products below stay far under SIZE_MAX, so each
  // ReadBytes is an honest bounds check (an unchecked u64 like 2^61
  // would wrap the byte count to 0 and "succeed" on an empty view), and
  // no allocation happens until the bytes are known to be present.
  if (nrows > kMaxPayloadBytes) {
    return Status::InvalidArgument("wire: implausible row count " +
                                   std::to_string(nrows));
  }
  mal::QueryResult result;
  for (uint32_t c = 0; c < ncols; ++c) {
    std::string name;
    uint8_t type = 0, enc = 0;
    uint64_t heap_len = 0;
    if (!ReadString(&r, &name) || !r.ReadInt(&type) || !r.ReadInt(&enc) ||
        !r.ReadInt(&heap_len)) {
      return Truncated("result column header");
    }
    if (!ValidType(type)) {
      return Status::InvalidArgument("wire: unknown column type " +
                                     std::to_string(type));
    }
    if (enc > static_cast<uint8_t>(ColumnEncoding::kPdict)) {
      return Status::InvalidArgument("wire: unknown column encoding " +
                                     std::to_string(enc));
    }
    const PhysType pt = static_cast<PhysType>(type);
    const ColumnEncoding encoding = static_cast<ColumnEncoding>(enc);
    BatPtr col;
    if (encoding == ColumnEncoding::kRle ||
        encoding == ColumnEncoding::kPdict) {
      // heap_len slot = codec stream length.
      if (pt != PhysType::kInt32 && pt != PhysType::kInt64) {
        return Status::InvalidArgument(
            "wire: compressed encoding on non-int column");
      }
      std::string_view stream_bytes;
      if (!r.ReadBytes(heap_len, &stream_bytes)) {
        return Truncated("compressed column stream");
      }
      std::vector<uint8_t> stream(stream_bytes.begin(), stream_bytes.end());
      col = Bat::New(pt);
      if (pt == PhysType::kInt32) {
        std::vector<int32_t> values;
        MAMMOTH_RETURN_IF_ERROR(encoding == ColumnEncoding::kRle
                                    ? compress::RleDecode(stream, &values)
                                    : compress::PdictDecode(stream, &values));
        if (values.size() != nrows) {
          return Status::InvalidArgument(
              "wire: compressed column row count mismatch");
        }
        col->AppendRaw(values.data(), values.size());
      } else {
        if (encoding != ColumnEncoding::kRle) {
          return Status::InvalidArgument(
              "wire: pdict encoding on int64 column");
        }
        std::vector<int64_t> values;
        MAMMOTH_RETURN_IF_ERROR(compress::Rle64Decode(stream, &values));
        if (values.size() != nrows) {
          return Status::InvalidArgument(
              "wire: compressed column row count mismatch");
        }
        col->AppendRaw(values.data(), values.size());
      }
    } else if (encoding == ColumnEncoding::kDense) {
      if (pt != PhysType::kOid) {
        return Status::InvalidArgument("wire: dense tail on non-oid column");
      }
      col = Bat::NewDense(heap_len, nrows);  // heap_len slot = tseqbase
    } else if (pt == PhysType::kStr) {
      std::string_view heap_bytes, offset_bytes;
      if (!r.ReadBytes(heap_len, &heap_bytes) ||
          !r.ReadBytes(nrows * sizeof(uint64_t), &offset_bytes)) {
        return Truncated("string column");
      }
      if (nrows > 0 &&
          (heap_len == 0 || heap_bytes[heap_len - 1] != '\0')) {
        return Status::InvalidArgument("wire: unterminated string heap");
      }
      auto heap = std::make_shared<StringHeap>();
      heap->Restore(heap_bytes.data(), heap_bytes.size());
      col = Bat::NewString(heap);
      col->Reserve(nrows);
      for (uint64_t i = 0; i < nrows; ++i) {
        uint64_t off = 0;
        std::memcpy(&off, offset_bytes.data() + i * sizeof(uint64_t),
                    sizeof(uint64_t));
        if (off >= heap_len) {
          return Status::InvalidArgument("wire: string offset out of heap");
        }
        col->tail().Append<uint64_t>(off);
      }
    } else {
      if (heap_len != 0) {
        return Status::InvalidArgument("wire: heap on fixed-width column");
      }
      std::string_view tail_bytes;
      if (!r.ReadBytes(nrows * TypeWidth(pt), &tail_bytes)) {
        return Truncated("column tail");
      }
      col = Bat::New(pt);
      col->AppendRaw(tail_bytes.data(), nrows);
    }
    result.names.push_back(std::move(name));
    result.columns.push_back(std::move(col));
  }
  if (!r.done()) {
    return Status::InvalidArgument("wire: trailing bytes after result");
  }
  return result;
}

}  // namespace mammoth::server
