#include "repl/applier.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/catalog.h"
#include "core/persist.h"
#include "repl/repl_wire.h"
#include "server/wire.h"
#include "sql/engine.h"

namespace mammoth::repl {

namespace fs = std::filesystem;

namespace {

Status SendFrame(int fd, server::FrameType type, std::string_view payload) {
  return server::SendAll(fd, server::EncodeFrame(type, payload));
}

}  // namespace

ReplicaApplier::ReplicaApplier(sql::Engine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {}

ReplicaApplier::~ReplicaApplier() { Stop(); }

Status ReplicaApplier::Start() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (thread_.joinable()) return Status::OK();
  engine_->set_read_only(true);
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void ReplicaApplier::Stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  stop_.store(true, std::memory_order_release);
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // break a blocked recv
  if (thread_.joinable()) thread_.join();
}

ReplicaApplier::Stats ReplicaApplier::stats() const {
  Stats s;
  s.connected = connected_.load(std::memory_order_acquire);
  s.replayed_lsn = replayed_lsn_.load(std::memory_order_acquire);
  s.source_durable_lsn = source_durable_lsn_.load(std::memory_order_acquire);
  s.txns_applied = txns_applied_.load(std::memory_order_acquire);
  s.snapshots_received = snapshots_received_.load(std::memory_order_acquire);
  return s;
}

void ReplicaApplier::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    Status st = Session();
    connected_.store(false, std::memory_order_release);
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) ::close(fd);
    // Half-applied transaction from a dropped session: resubscribing at
    // the replayed LSN re-ships it from its Begin record.
    in_txn_ = false;
    txn_ops_.clear();
    inbuf_.clear();
    if (stop_.load(std::memory_order_acquire)) break;
    (void)st;  // retry every failure; the primary may simply be restarting
    struct timespec tick {options_.reconnect_ms / 1000,
                          (options_.reconnect_ms % 1000) * 1000000};
    nanosleep(&tick, nullptr);
  }
}

Result<int> ReplicaApplier::ConnectAndSubscribe() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("repl: socket() failed");
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("repl: bad primary address " +
                                   options_.host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable(std::string("repl: connect: ") +
                               strerror(errno));
  }
  struct timeval tv {};
  tv.tv_sec = options_.recv_timeout_ms / 1000;
  tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status ReplicaApplier::ReadFrame(uint8_t* type, std::string* payload) {
  for (;;) {
    server::Frame frame;
    MAMMOTH_ASSIGN_OR_RETURN(
        size_t used,
        server::DecodeFrame(inbuf_.data(), inbuf_.size(), &frame));
    if (used > 0) {
      inbuf_.erase(0, used);
      *type = static_cast<uint8_t>(frame.type);
      *payload = std::move(frame.payload);
      return Status::OK();
    }
    if (stop_.load(std::memory_order_acquire)) {
      return Status::Unavailable("repl: applier stopping");
    }
    char buf[64 * 1024];
    const ssize_t n =
        ::recv(fd_.load(std::memory_order_acquire), buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::Unavailable("repl: primary hung up");
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      continue;  // recv timeout tick: lets the stop flag be noticed
    }
    return Status::IOError(std::string("repl recv: ") + strerror(errno));
  }
}

Status ReplicaApplier::Session() {
  MAMMOTH_ASSIGN_OR_RETURN(const int fd, ConnectAndSubscribe());
  fd_.store(fd, std::memory_order_release);
  // If Stop() raced the connect it missed our fd; honor the flag now.
  if (stop_.load(std::memory_order_acquire)) {
    return Status::Unavailable("repl: applier stopping");
  }
  inbuf_.clear();

  uint8_t type = 0;
  std::string payload;
  MAMMOTH_RETURN_IF_ERROR(ReadFrame(&type, &payload));
  if (type != static_cast<uint8_t>(server::FrameType::kHello)) {
    return Status::InvalidArgument("repl: expected Hello from primary");
  }
  MAMMOTH_ASSIGN_OR_RETURN(server::HelloInfo hello,
                           server::DecodeHello(payload));
  if ((hello.caps & server::kWireCapReplication) == 0) {
    return Status::Unsupported(
        "repl: primary does not offer replication (not durable?)");
  }
  MAMMOTH_RETURN_IF_ERROR(
      SendFrame(fd, server::FrameType::kCaps,
                server::EncodeCaps(server::kWireCapReplication)));
  SubscribeRequest sub;
  sub.start_lsn = replayed_lsn_.load(std::memory_order_acquire);
  recv_cursor_ = sub.start_lsn;
  MAMMOTH_RETURN_IF_ERROR(SendFrame(fd, server::FrameType::kReplSubscribe,
                                    EncodeSubscribe(sub)));
  connected_.store(true, std::memory_order_release);

  for (;;) {
    MAMMOTH_RETURN_IF_ERROR(ReadFrame(&type, &payload));
    switch (static_cast<server::FrameType>(type)) {
      case server::FrameType::kReplRecords:
        MAMMOTH_RETURN_IF_ERROR(HandleRecords(payload));
        break;
      case server::FrameType::kReplSnapBegin:
        MAMMOTH_RETURN_IF_ERROR(ReceiveSnapshot(payload));
        break;
      case server::FrameType::kError: {
        MAMMOTH_ASSIGN_OR_RETURN(server::WireError err,
                                 server::DecodeError(payload));
        return err.ToStatus();
      }
      case server::FrameType::kClose:
        return Status::Unavailable("repl: primary closed the session");
      default:
        return Status::InvalidArgument("repl: unexpected frame type " +
                                       std::to_string(type));
    }
  }
}

Status ReplicaApplier::HandleRecords(std::string_view payload) {
  MAMMOTH_ASSIGN_OR_RETURN(RecordsBatch batch, DecodeRecords(payload));
  source_durable_lsn_.store(batch.source_durable_lsn,
                            std::memory_order_release);
  if (batch.base_lsn != recv_cursor_) {
    return Status::InvalidArgument(
        "repl: batch at lsn " + std::to_string(batch.base_lsn) +
        ", expected " + std::to_string(recv_cursor_));
  }
  MAMMOTH_ASSIGN_OR_RETURN(std::vector<wal::Record> records,
                           DecodeShippedBatch(batch.bytes, batch.base_lsn));
  for (wal::Record& rec : records) {
    switch (rec.type) {
      case wal::RecordType::kBegin:
        if (in_txn_) {
          return Status::Corruption("repl: nested Begin at lsn " +
                                    std::to_string(rec.lsn));
        }
        in_txn_ = true;
        txn_id_ = rec.txn_id;
        txn_ops_.clear();
        break;
      case wal::RecordType::kCommit: {
        if (!in_txn_ || rec.txn_id != txn_id_) {
          return Status::Corruption("repl: commit without matching Begin");
        }
        MAMMOTH_RETURN_IF_ERROR(engine_->ApplyReplicatedTxn(txn_ops_));
        in_txn_ = false;
        txn_ops_.clear();
        replayed_lsn_.store(rec.end_lsn, std::memory_order_release);
        txns_applied_.fetch_add(1, std::memory_order_relaxed);
        uint64_t next = next_txn_id_.load(std::memory_order_acquire);
        while (rec.txn_id + 1 > next &&
               !next_txn_id_.compare_exchange_weak(next, rec.txn_id + 1)) {
        }
        break;
      }
      default:
        if (!in_txn_) {
          return Status::Corruption("repl: op outside a transaction at lsn " +
                                    std::to_string(rec.lsn));
        }
        txn_ops_.push_back(std::move(rec));
        break;
    }
  }
  recv_cursor_ += batch.bytes.size();
  Ack ack;
  ack.replayed_lsn = replayed_lsn_.load(std::memory_order_acquire);
  return SendFrame(fd_.load(std::memory_order_acquire),
                   server::FrameType::kReplAck, EncodeAck(ack));
}

Status ReplicaApplier::ReceiveSnapshot(std::string_view begin_payload) {
  MAMMOTH_ASSIGN_OR_RETURN(SnapBegin begin, DecodeSnapBegin(begin_payload));
  if (in_txn_) {
    return Status::Corruption("repl: snapshot inside a transaction");
  }
  std::string scratch = options_.scratch_dir;
  if (scratch.empty()) {
    scratch = (fs::temp_directory_path() /
               ("mammoth_repl_" + std::to_string(::getpid())))
                  .string();
  }
  const std::string inbox = scratch + "/snap_inbox";
  std::error_code ec;
  fs::remove_all(inbox, ec);
  fs::create_directories(inbox, ec);
  if (ec) return Status::IOError("repl: mkdir " + inbox + ": " + ec.message());

  uint8_t type = 0;
  std::string payload;
  for (;;) {
    MAMMOTH_RETURN_IF_ERROR(ReadFrame(&type, &payload));
    if (type == static_cast<uint8_t>(server::FrameType::kReplSnapEnd)) break;
    if (type != static_cast<uint8_t>(server::FrameType::kReplFile)) {
      return Status::InvalidArgument(
          "repl: unexpected frame inside snapshot transfer");
    }
    MAMMOTH_ASSIGN_OR_RETURN(FileChunk chunk, DecodeFileChunk(payload));
    const std::string path = inbox + "/" + std::string(chunk.name);
    fs::create_directories(fs::path(path).parent_path(), ec);
    ec.clear();
    const uint64_t existing =
        chunk.offset == 0 ? 0 : static_cast<uint64_t>(fs::file_size(path, ec));
    if (ec || chunk.offset != existing) {
      return Status::InvalidArgument("repl: snapshot chunk out of order");
    }
    std::ofstream out(path, chunk.offset == 0
                                ? std::ios::binary | std::ios::trunc
                                : std::ios::binary | std::ios::app);
    if (!out.is_open()) return Status::IOError("repl: open " + path);
    out.write(chunk.data.data(),
              static_cast<std::streamsize>(chunk.data.size()));
    if (!out.good()) return Status::IOError("repl: write " + path);
  }
  MAMMOTH_ASSIGN_OR_RETURN(SnapEnd end, DecodeSnapEnd(payload));
  if (end.snapshot_lsn != begin.snapshot_lsn) {
    return Status::InvalidArgument("repl: snapshot begin/end lsn mismatch");
  }
  MAMMOTH_ASSIGN_OR_RETURN(std::shared_ptr<Catalog> catalog,
                           LoadCatalog(inbox, /*use_mmap=*/false));
  MAMMOTH_RETURN_IF_ERROR(engine_->ResetCatalogForReplication(catalog));
  replayed_lsn_.store(begin.snapshot_lsn, std::memory_order_release);
  recv_cursor_ = begin.snapshot_lsn;
  uint64_t next = next_txn_id_.load(std::memory_order_acquire);
  while (begin.next_txn_id > next &&
         !next_txn_id_.compare_exchange_weak(next, begin.next_txn_id)) {
  }
  snapshots_received_.fetch_add(1, std::memory_order_relaxed);
  Ack ack;
  ack.replayed_lsn = begin.snapshot_lsn;
  return SendFrame(fd_.load(std::memory_order_acquire),
                   server::FrameType::kReplAck, EncodeAck(ack));
}

}  // namespace mammoth::repl
