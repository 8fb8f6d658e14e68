#ifndef MAMMOTH_SERVER_WIRE_H_
#define MAMMOTH_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/value.h"
#include "mal/interpreter.h"

namespace mammoth::server {

/// The MammothDB wire protocol: a small MAPI-inspired framing layer.
/// MonetDB's MAPI ships query results as text blocks; ours keeps the
/// *columnar* shape of the kernel all the way to the socket — a Result
/// frame is a sequence of typed tail arrays plus compact string-heap
/// slices, never tuple-at-a-time rows.
///
/// Every frame is `Header ++ payload`, header fixed at 12 bytes, all
/// integers little-endian:
///
///   offset  size  field
///   0       4     magic   0x4D4D5448 ("MMTH")
///   4       2     version (kWireVersion; mismatch is a hard error)
///   6       1     frame type (FrameType)
///   7       1     reserved (must be 0)
///   8       4     payload length in bytes (<= kMaxPayloadBytes)
///
/// Conversation: server sends Hello on accept; the client then issues
/// Query frames and receives exactly one Result *or* Error frame per
/// query; Close (either side) ends the session. A server that is
/// draining answers new connections/queries with an Error frame whose
/// status code is kUnavailable; an admission-queue timeout produces
/// kTimedOut.
inline constexpr uint32_t kMagic = 0x4D4D5448;  // "MMTH"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr uint32_t kMaxPayloadBytes = 1u << 28;  // 256 MB
inline constexpr size_t kHeaderBytes = 12;

enum class FrameType : uint8_t {
  kHello = 1,  ///< server -> client: session id + server name
  kQuery = 2,  ///< client -> server: payload is the SQL text
  kResult = 3, ///< server -> client: columnar result set (see below)
  kError = 4,  ///< server -> client: status code + message
  kClose = 5,  ///< either side: end of session (empty payload)
  kCaps = 6,   ///< client -> server: capability bits (u32), after Hello
  // --- pipelined / prepared extension (kWireCapPipeline/-Prepared) ---
  // Every frame below starts its payload with a u32 sequence number the
  // client picked; the matching response carries the same number, so a
  // session may keep many queries in flight and match replies out of
  // order. Sequence number 0 is reserved (hostile) and a number may not
  // be reused while its request is still in flight.
  kQuerySeq = 7,   ///< client -> server: u32 seq ++ SQL text
  kResultSeq = 8,  ///< server -> client: u32 seq ++ Result payload
  kErrorSeq = 9,   ///< server -> client: u32 seq ++ Error payload
  kPrepare = 10,   ///< client -> server: u32 seq ++ statement text
  kPrepared = 11,  ///< server -> client: u32 seq ++ u64 id ++ u32 nparams
  kExecute = 12,   ///< client -> server: u32 seq ++ u64 id ++ params
  // --- replication extension (kWireCapReplication) ---
  // A replica connects like any client, answers Caps, then sends
  // kReplSubscribe; the server detaches the socket from the query
  // front-end and hands it to the ReplicationSource, which owns it for
  // the rest of the session. Payload shapes live in repl/repl_wire.h.
  kReplSubscribe = 13,  ///< replica -> primary: u64 start lsn
  kReplRecords = 14,    ///< primary -> replica: WAL byte range (framed records)
  kReplAck = 15,        ///< replica -> primary: u64 replayed lsn
  kReplSnapBegin = 16,  ///< primary -> replica: snapshot lsn + file count
  kReplFile = 17,       ///< primary -> replica: one snapshot file chunk
  kReplSnapEnd = 18,    ///< primary -> replica: snapshot complete
};

/// Capability bits, negotiated per session: the server advertises its
/// capabilities in Hello; a client that wants one answers with a Caps
/// frame carrying the subset it also supports. A session with no Caps
/// frame runs with zero capabilities — old clients keep working
/// unchanged.
inline constexpr uint32_t kWireCapCompressedResults = 1u << 0;
/// Sequence-numbered frames (kQuerySeq/kResultSeq/kErrorSeq): a session
/// may pipeline queries; responses are tagged and complete out of order.
inline constexpr uint32_t kWireCapPipeline = 1u << 1;
/// kPrepare/kPrepared/kExecute frames backed by the engine's prepared
/// plan cache.
inline constexpr uint32_t kWireCapPrepared = 1u << 2;
/// Replication frames (kReplSubscribe..kReplSnapEnd): the server is a
/// durable primary willing to stream its WAL to subscribers.
inline constexpr uint32_t kWireCapReplication = 1u << 3;
/// kPrepared replies append typed parameter metadata (u8 per placeholder;
/// see PreparedReply::param_types). Sessions without the capability get
/// the original fixed-size reply, byte-identical.
inline constexpr uint32_t kWireCapParamTypes = 1u << 4;

/// A decoded frame (payload still in wire encoding).
struct Frame {
  FrameType type = FrameType::kClose;
  std::string payload;
};

/// Frames `payload` under `type`.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Attempts to decode one frame from the front of [data, data+size).
/// Returns the number of bytes consumed (header + payload) on success,
/// 0 when the buffer does not yet hold a complete frame, or an error
/// Status for a corrupt header (bad magic / version / type / length) —
/// corrupt streams cannot be resynchronized and must be dropped.
Result<size_t> DecodeFrame(const char* data, size_t size, Frame* out);

/// --- Hello ---------------------------------------------------------------
struct HelloInfo {
  uint64_t session_id = 0;
  std::string server_name;
  /// Capability bits the server supports (kWireCap*). Absent in frames
  /// from older servers; the decoder then leaves it 0.
  uint32_t caps = 0;
};
std::string EncodeHello(const HelloInfo& hello);
Result<HelloInfo> DecodeHello(std::string_view payload);

/// --- Caps ----------------------------------------------------------------
std::string EncodeCaps(uint32_t caps);
Result<uint32_t> DecodeCaps(std::string_view payload);

/// --- Error ---------------------------------------------------------------
/// Error payloads carry the StatusCode as a typed byte, so clients can
/// distinguish e.g. an admission timeout (kTimedOut) from a SQL error.
std::string EncodeError(const Status& error);
/// Decodes an Error payload back into the Status it encodes.
/// (Returned inside a wrapper: Result<Status> would conflate transport
/// failure with the transported error.)
struct WireError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
  Status ToStatus() const { return Status(code, message); }
};
Result<WireError> DecodeError(std::string_view payload);

/// --- Sequence numbers ------------------------------------------------------
/// All FrameType values >= kQuerySeq prefix their payload with a u32
/// sequence number; the rest of the payload keeps the shape of the
/// corresponding plain frame (kQuerySeq rest = SQL text, kResultSeq rest
/// = Result payload, kErrorSeq rest = Error payload).
std::string PrependSeq(uint32_t seq, std::string_view rest);
struct SeqPayload {
  uint32_t seq = 0;
  std::string_view rest;  ///< view into the input payload
};
Result<SeqPayload> SplitSeq(std::string_view payload);

/// --- Prepare / Execute -----------------------------------------------------
/// kPrepared response body (after the seq prefix): the server-assigned
/// statement id and how many `?` parameters the statement takes. For
/// sessions that negotiated kWireCapParamTypes the body is followed by
/// `u32 ntypes` and one ParamType byte per placeholder; older sessions
/// receive the original fixed-size body unchanged.
enum class ParamType : uint8_t {
  kUnknown = 0,  ///< no typed context (e.g. HAVING literal)
  kInt = 1,
  kReal = 2,
  kStr = 3,
};
struct PreparedReply {
  uint64_t stmt_id = 0;
  uint32_t nparams = 0;
  /// One entry per placeholder when the session negotiated
  /// kWireCapParamTypes (ParamType values); empty otherwise.
  std::vector<uint8_t> param_types;
};
std::string EncodePrepared(uint32_t seq, const PreparedReply& reply,
                           uint32_t caps = 0);
Result<PreparedReply> DecodePrepared(std::string_view rest);

/// kExecute body (after the seq prefix): u64 stmt_id, u16 nparams, then
/// each parameter as a typed value — u8 kind (0 nil, 1 int, 2 real,
/// 3 string), int/real as fixed 8-byte little-endian, strings as
/// u32 length + bytes.
std::string EncodeExecute(uint32_t seq, uint64_t stmt_id,
                          const std::vector<Value>& params);
struct ExecuteRequest {
  uint64_t stmt_id = 0;
  std::vector<Value> params;
};
Result<ExecuteRequest> DecodeExecute(std::string_view rest);

/// --- Requests --------------------------------------------------------------
/// One executable client request: a kQuery, kQuerySeq or kExecute frame
/// decoded. seq 0 means a plain (untagged) kQuery, answered untagged and
/// in request order; any other seq tags the response.
struct WireRequest {
  uint32_t seq = 0;
  bool is_execute = false;  ///< kExecute (stmt_id + params) vs SQL text
  std::string sql;
  uint64_t stmt_id = 0;
  std::vector<Value> params;
};
/// Decodes a request frame. Errors (another frame type, a malformed
/// payload) are session-fatal protocol violations.
Result<WireRequest> DecodeRequest(const Frame& frame);

/// Writes all of `bytes` to the blocking socket `fd` (MSG_NOSIGNAL, so a
/// vanished peer is an error rather than SIGPIPE; EINTR retried).
/// kIOError when the connection is lost.
Status SendAll(int fd, std::string_view bytes);

/// --- Result --------------------------------------------------------------
/// Columnar result encoding:
///
///   u32 ncols, u64 nrows
///   per column:
///     u16 name_len, name bytes
///     u8  phys type (PhysType)
///     u8  encoding (ColumnEncoding below)
///     raw:     u64 heap_len (= 0), nrows x TypeWidth(type) tail bytes
///     dense:   u64 tseqbase                      (no tail array)
///     string:  u64 heap_len, heap bytes,         (compact slice: only the
///              nrows x u64 offsets into it        strings this column uses)
///     rle/pdict: u64 stream_len, stream bytes    (compress/ codec image)
///
/// The encoding byte generalizes the old dense flag (0/1 wire images are
/// byte-identical to protocol sessions that predate it). The compressed
/// encodings (2, 3) are only emitted for sessions that negotiated
/// kWireCapCompressedResults, and only when the codec image is strictly
/// smaller than the raw tail; int32 columns may ship as RLE or PDICT,
/// int64 as RLE.
///
/// The string-heap slice is rebuilt per column by interning the column's
/// values into a fresh heap, so the frame never leaks unrelated strings
/// from the (shared, table-wide) source heap, and the decoder restores
/// it zero-copy: heap bytes + offsets are usable as-is.
enum class ColumnEncoding : uint8_t {
  kRaw = 0,
  kDense = 1,
  kRle = 2,
  kPdict = 3,
};

/// Encodes a result for a session holding `caps`. When `wire_bytes_saved`
/// is non-null, it accumulates the bytes the compressed column encodings
/// saved relative to raw tails (0 without the capability).
Result<std::string> EncodeResult(const mal::QueryResult& result,
                                 uint32_t caps = 0,
                                 uint64_t* wire_bytes_saved = nullptr);
Result<mal::QueryResult> DecodeResult(std::string_view payload);

}  // namespace mammoth::server

#endif  // MAMMOTH_SERVER_WIRE_H_
