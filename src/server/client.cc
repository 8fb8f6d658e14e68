#include "server/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace mammoth::server {

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& o) noexcept
    : fd_(o.fd_),
      hello_(std::move(o.hello_)),
      caps_(o.caps_),
      buffer_(std::move(o.buffer_)),
      next_seq_(o.next_seq_),
      pending_(std::move(o.pending_)),
      done_(std::move(o.done_)) {
  o.fd_ = -1;
}

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = o.fd_;
    hello_ = std::move(o.hello_);
    caps_ = o.caps_;
    buffer_ = std::move(o.buffer_);
    next_seq_ = o.next_seq_;
    pending_ = std::move(o.pending_);
    done_ = std::move(o.done_);
    o.fd_ = -1;
  }
  return *this;
}

Result<Client> Client::Connect(const std::string& host, uint16_t port,
                               const ClientOptions& options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &found);
  if (rc != 0 || found == nullptr) {
    return Status::IOError("resolve " + host + ": " + ::gai_strerror(rc));
  }
  int fd = -1;
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    return Status::IOError("connect " + host + ":" + std::to_string(port) +
                           ": " + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options.recv_timeout_ms / 1000;
    tv.tv_usec = (options.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  Client client;
  client.fd_ = fd;
  MAMMOTH_ASSIGN_OR_RETURN(Frame frame, client.ReadFrame());
  if (frame.type == FrameType::kError) {
    MAMMOTH_ASSIGN_OR_RETURN(WireError e, DecodeError(frame.payload));
    return e.ToStatus();
  }
  if (frame.type != FrameType::kHello) {
    return Status::InvalidArgument("expected Hello frame from server");
  }
  MAMMOTH_ASSIGN_OR_RETURN(client.hello_, DecodeHello(frame.payload));
  // Capability negotiation: opt into everything this client understands
  // that the server advertised (compressed results, pipelining,
  // prepared statements, typed parameter metadata).
  client.caps_ =
      client.hello_.caps & (kWireCapCompressedResults | kWireCapPipeline |
                            kWireCapPrepared | kWireCapParamTypes);
  if (client.caps_ != 0) {
    MAMMOTH_RETURN_IF_ERROR(SendAll(
        client.fd_, EncodeFrame(FrameType::kCaps, EncodeCaps(client.caps_))));
  }
  return client;
}

uint32_t Client::NextSeq() {
  const uint32_t seq = next_seq_++;
  if (next_seq_ == 0) next_seq_ = 1;  // 0 is reserved on the wire
  return seq;
}

Status Client::StashTagged(const Frame& frame) {
  MAMMOTH_ASSIGN_OR_RETURN(SeqPayload sp, SplitSeq(frame.payload));
  if (pending_.erase(sp.seq) == 0) {
    return Status::InvalidArgument(
        "server replied to unknown sequence number " +
        std::to_string(sp.seq));
  }
  if (frame.type == FrameType::kResultSeq) {
    done_.emplace(sp.seq, DecodeResult(sp.rest));
  } else {
    MAMMOTH_ASSIGN_OR_RETURN(WireError e, DecodeError(sp.rest));
    done_.emplace(sp.seq, e.ToStatus());
  }
  return Status::OK();
}

Result<mal::QueryResult> Client::Query(const std::string& sql) {
  if (fd_ < 0) return Status::IOError("client not connected");
  MAMMOTH_RETURN_IF_ERROR(SendAll(fd_, EncodeFrame(FrameType::kQuery, sql)));
  while (true) {
    MAMMOTH_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    switch (frame.type) {
      case FrameType::kResult:
        return DecodeResult(frame.payload);
      case FrameType::kError: {
        MAMMOTH_ASSIGN_OR_RETURN(WireError e, DecodeError(frame.payload));
        return e.ToStatus();
      }
      case FrameType::kResultSeq:
      case FrameType::kErrorSeq:
        // A pipelined response overtaking this plain query: stash it
        // for its own Await.
        MAMMOTH_RETURN_IF_ERROR(StashTagged(frame));
        continue;
      case FrameType::kClose:
        Close();
        return Status::Unavailable("server closed the session");
      default:
        return Status::InvalidArgument("unexpected frame type " +
                                       std::to_string(static_cast<int>(
                                           frame.type)));
    }
  }
}

Result<uint32_t> Client::QueryAsync(const std::string& sql) {
  if (fd_ < 0) return Status::IOError("client not connected");
  if ((caps_ & kWireCapPipeline) == 0) {
    return Status::Unimplemented("server does not support pipelining");
  }
  const uint32_t seq = NextSeq();
  pending_.insert(seq);
  if (Status st = SendAll(
          fd_, EncodeFrame(FrameType::kQuerySeq, PrependSeq(seq, sql)));
      !st.ok()) {
    pending_.erase(seq);
    return st;
  }
  return seq;
}

Result<mal::QueryResult> Client::Await(uint32_t seq) {
  while (true) {
    auto it = done_.find(seq);
    if (it != done_.end()) {
      Result<mal::QueryResult> r = std::move(it->second);
      done_.erase(it);
      return r;
    }
    if (pending_.count(seq) == 0) {
      return Status::InvalidArgument("await on unknown sequence number " +
                                     std::to_string(seq));
    }
    MAMMOTH_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    if (frame.type != FrameType::kResultSeq &&
        frame.type != FrameType::kErrorSeq) {
      return Status::InvalidArgument(
          "unexpected frame type while awaiting a pipelined response");
    }
    MAMMOTH_RETURN_IF_ERROR(StashTagged(frame));
  }
}

Result<PreparedHandle> Client::Prepare(const std::string& sql) {
  if (fd_ < 0) return Status::IOError("client not connected");
  if ((caps_ & kWireCapPrepared) == 0) {
    return Status::Unimplemented(
        "server does not support prepared statements");
  }
  const uint32_t seq = NextSeq();
  MAMMOTH_RETURN_IF_ERROR(
      SendAll(fd_, EncodeFrame(FrameType::kPrepare, PrependSeq(seq, sql))));
  while (true) {
    MAMMOTH_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    if (frame.type == FrameType::kPrepared ||
        frame.type == FrameType::kErrorSeq) {
      MAMMOTH_ASSIGN_OR_RETURN(SeqPayload sp, SplitSeq(frame.payload));
      if (sp.seq == seq) {
        if (frame.type == FrameType::kErrorSeq) {
          MAMMOTH_ASSIGN_OR_RETURN(WireError e, DecodeError(sp.rest));
          return e.ToStatus();
        }
        MAMMOTH_ASSIGN_OR_RETURN(PreparedReply reply,
                                 DecodePrepared(sp.rest));
        return PreparedHandle{reply.stmt_id, reply.nparams,
                              std::move(reply.param_types)};
      }
      if (frame.type == FrameType::kErrorSeq) {
        // An error for some other in-flight pipelined query.
        MAMMOTH_RETURN_IF_ERROR(StashTagged(frame));
        continue;
      }
      return Status::InvalidArgument(
          "prepared reply for wrong sequence number");
    }
    if (frame.type == FrameType::kResultSeq) {
      MAMMOTH_RETURN_IF_ERROR(StashTagged(frame));
      continue;
    }
    if (frame.type == FrameType::kError) {
      MAMMOTH_ASSIGN_OR_RETURN(WireError e, DecodeError(frame.payload));
      return e.ToStatus();
    }
    return Status::InvalidArgument(
        "unexpected frame type while awaiting a Prepared reply");
  }
}

Result<uint32_t> Client::ExecutePreparedAsync(
    const PreparedHandle& handle, const std::vector<Value>& params) {
  if (fd_ < 0) return Status::IOError("client not connected");
  if ((caps_ & kWireCapPrepared) == 0) {
    return Status::Unimplemented(
        "server does not support prepared statements");
  }
  const uint32_t seq = NextSeq();
  pending_.insert(seq);
  if (Status st = SendAll(
          fd_, EncodeFrame(FrameType::kExecute,
                           EncodeExecute(seq, handle.stmt_id, params)));
      !st.ok()) {
    pending_.erase(seq);
    return st;
  }
  return seq;
}

Result<mal::QueryResult> Client::ExecutePrepared(
    const PreparedHandle& handle, const std::vector<Value>& params) {
  MAMMOTH_ASSIGN_OR_RETURN(uint32_t seq,
                           ExecutePreparedAsync(handle, params));
  return Await(seq);
}

void Client::Close() {
  if (fd_ < 0) return;
  SendAll(fd_, EncodeFrame(FrameType::kClose, ""));
  ::close(fd_);
  fd_ = -1;
}

Result<Frame> Client::ReadFrame() {
  while (true) {
    Frame frame;
    MAMMOTH_ASSIGN_OR_RETURN(
        size_t consumed, DecodeFrame(buffer_.data(), buffer_.size(), &frame));
    if (consumed > 0) {
      buffer_.erase(0, consumed);
      return frame;
    }
    // Short reads are the normal case: keep appending until a frame
    // completes, however the server's writes were segmented.
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired (possibly mid-frame).
      return Status::TimedOut("recv(): response timed out");
    }
    return Status::IOError("connection closed by server");
  }
}

}  // namespace mammoth::server
