#include "repl/source.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "repl/repl_wire.h"
#include "server/wire.h"

namespace mammoth::repl {

namespace fs = std::filesystem;

namespace {

Status SendFrame(int fd, server::FrameType type, std::string_view payload) {
  return server::SendAll(fd, server::EncodeFrame(type, payload));
}

/// One WAL segment file on disk, identified by the start LSN its
/// fixed-width filename encodes.
struct SegmentRef {
  uint64_t start_lsn = 0;
  std::string path;
};

std::vector<SegmentRef> ListSegments(const std::string& dir) {
  std::vector<SegmentRef> segs;
  std::error_code ec;
  fs::directory_iterator it(wal::WalSubdir(dir), ec);
  if (ec) return segs;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal_", 0) != 0 || name.size() < 24) continue;
    segs.push_back({std::strtoull(name.c_str() + 4, nullptr, 10),
                    entry.path().string()});
  }
  std::sort(segs.begin(), segs.end(),
            [](const SegmentRef& a, const SegmentRef& b) {
              return a.start_lsn < b.start_lsn;
            });
  return segs;
}

Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                  size_t n) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("repl: open " + path);
  in.seekg(static_cast<std::streamoff>(offset));
  std::string bytes(n, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(n));
  if (in.gcount() != static_cast<std::streamsize>(n)) {
    return Status::IOError("repl: short read from " + path);
  }
  return bytes;
}

/// Minimal CURRENT parse (the full one lives in wal/db.cc's recovery).
struct CheckpointRef {
  uint64_t checkpoint_lsn = 0;
  std::string snapshot_dir;
  uint64_t next_txn_id = 1;
};

Result<CheckpointRef> ReadCheckpointRef(const std::string& dir) {
  std::ifstream in(wal::CurrentFilePath(dir));
  if (!in.is_open()) {
    return Status::Unavailable("repl: no checkpoint to bootstrap from");
  }
  CheckpointRef ref;
  std::string snap_name;
  if (!(in >> ref.checkpoint_lsn >> snap_name >> ref.next_txn_id)) {
    return Status::Corruption("repl: malformed CURRENT file in " + dir);
  }
  ref.snapshot_dir = dir + "/" + snap_name;
  return ref;
}

}  // namespace

ReplicationSource::ReplicationSource(wal::Wal* wal, Options options)
    : wal_(wal), options_(std::move(options)) {}

ReplicationSource::~ReplicationSource() { Stop(); }

Status ReplicationSource::Adopt(int fd, uint64_t start_lsn,
                                std::string leftover) {
  auto rep = std::make_shared<Replica>();
  rep->fd = fd;
  rep->cursor = start_lsn;
  rep->acked = start_lsn;
  rep->inbuf = std::move(leftover);

  // The epoll front-end hands the socket over non-blocking; the sender
  // thread uses plain blocking sends bounded by SO_SNDTIMEO instead.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0 && (flags & O_NONBLOCK) != 0) {
    ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
  struct timeval tv {};
  tv.tv_sec = options_.send_timeout_ms / 1000;
  tv.tv_usec = (options_.send_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    ::close(fd);
    return Status::Unavailable("repl: source is stopping");
  }
  // Reap finished senders so a churning subscriber doesn't grow the list.
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if ((*it)->gone) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = replicas_.erase(it);
    } else {
      ++it;
    }
  }
  rep->thread = std::thread([this, rep] { SenderLoop(rep); });
  replicas_.push_back(rep);
  return Status::OK();
}

void ReplicationSource::Stop() {
  std::vector<std::shared_ptr<Replica>> reps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    reps = replicas_;
    cv_.notify_all();
  }
  for (const auto& rep : reps) {
    ::shutdown(rep->fd, SHUT_RDWR);  // breaks a blocked poll/send
  }
  for (const auto& rep : reps) {
    if (rep->thread.joinable()) rep->thread.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  replicas_.clear();
}

Status ReplicationSource::WaitForAck(uint64_t lsn) {
  if (!options_.semi_sync) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  const auto satisfied = [&] {
    if (stopping_) return true;
    uint64_t best = 0;
    bool any = false;
    for (const auto& rep : replicas_) {
      if (rep->gone) continue;
      any = true;
      best = std::max(best, rep->acked);
    }
    // Zero live replicas waive the barrier: a dead replica must not
    // wedge the primary's commits.
    return !any || best >= lsn;
  };
  // A subscriber that reads but never acks is dropped by the send
  // timeout; the barrier timeout is the second line of defense, after
  // which the commit proceeds un-replicated rather than wedging.
  cv_.wait_for(lock, std::chrono::milliseconds(options_.semi_sync_timeout_ms),
               satisfied);
  return Status::OK();
}

ReplicationSource::Stats ReplicationSource::stats() const {
  Stats s;
  const uint64_t durable = wal_->stats().durable_lsn;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& rep : replicas_) {
    if (rep->gone) continue;
    ++s.replicas;
    s.min_shipped_lsn =
        s.replicas == 1 ? rep->cursor : std::min(s.min_shipped_lsn, rep->cursor);
    s.min_acked_lsn =
        s.replicas == 1 ? rep->acked : std::min(s.min_acked_lsn, rep->acked);
  }
  if (s.replicas > 0 && durable > s.min_acked_lsn) {
    s.lag_bytes = durable - s.min_acked_lsn;
  }
  s.snapshots_served = snapshots_served_;
  return s;
}

Status ReplicationSource::DrainAcks(const std::shared_ptr<Replica>& rep,
                                    int timeout_ms) {
  struct pollfd pfd {};
  pfd.fd = rep->fd;
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0 && errno != EINTR) {
    return Status::IOError(std::string("repl poll: ") + strerror(errno));
  }
  if (ready > 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(rep->fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        rep->inbuf.append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) == sizeof(buf)) continue;
        break;
      }
      if (n == 0) return Status::Unavailable("repl: subscriber hung up");
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      return Status::IOError(std::string("repl recv: ") + strerror(errno));
    }
  }
  // Decode every complete frame buffered so far.
  size_t off = 0;
  for (;;) {
    server::Frame frame;
    MAMMOTH_ASSIGN_OR_RETURN(
        size_t used, server::DecodeFrame(rep->inbuf.data() + off,
                                         rep->inbuf.size() - off, &frame));
    if (used == 0) break;
    off += used;
    if (frame.type == server::FrameType::kClose) {
      return Status::Unavailable("repl: subscriber closed the session");
    }
    if (frame.type != server::FrameType::kReplAck) {
      return Status::InvalidArgument("repl: unexpected frame from subscriber");
    }
    MAMMOTH_ASSIGN_OR_RETURN(Ack ack, DecodeAck(frame.payload));
    std::lock_guard<std::mutex> lock(mu_);
    if (ack.replayed_lsn > rep->acked) {
      rep->acked = ack.replayed_lsn;
      cv_.notify_all();
    }
  }
  if (off > 0) rep->inbuf.erase(0, off);
  return Status::OK();
}

Status ReplicationSource::ShipBatch(const std::shared_ptr<Replica>& rep,
                                    uint64_t durable) {
  const std::vector<SegmentRef> segs = ListSegments(options_.dir);
  if (segs.empty()) return Status::OK();
  if (rep->cursor < segs.front().start_lsn) {
    // The segment holding the cursor was GC'd by a checkpoint: the
    // subscriber needs a snapshot bootstrap first.
    return Status::NotFound("repl: cursor predates retained segments");
  }
  // The segment holding the cursor: greatest start <= cursor, or — when
  // the cursor sits exactly at that segment's end — its successor.
  size_t idx = segs.size();
  for (size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].start_lsn <= rep->cursor) idx = i;
  }
  if (idx == segs.size()) return Status::OK();  // defensive
  for (; idx < segs.size(); ++idx) {
    std::error_code ec;
    const uint64_t file_size = fs::file_size(segs[idx].path, ec);
    if (ec) return Status::IOError("repl: stat " + segs[idx].path);
    const uint64_t in_seg = rep->cursor - segs[idx].start_lsn;
    const uint64_t payload =
        file_size > wal::kSegmentHeaderBytes
            ? file_size - wal::kSegmentHeaderBytes
            : 0;
    if (in_seg < payload) break;  // bytes available here
    if (idx + 1 == segs.size() || segs[idx + 1].start_lsn != rep->cursor) {
      return Status::OK();  // nothing durable to ship yet
    }
  }
  if (idx == segs.size()) return Status::OK();

  const SegmentRef& seg = segs[idx];
  const uint64_t in_seg = rep->cursor - seg.start_lsn;
  std::error_code ec;
  const uint64_t file_size = fs::file_size(seg.path, ec);
  if (ec) return Status::IOError("repl: stat " + seg.path);
  const uint64_t avail = file_size - wal::kSegmentHeaderBytes - in_seg;
  uint64_t want = std::min<uint64_t>(
      {avail, durable - rep->cursor, options_.max_batch_bytes});
  if (want == 0) return Status::OK();
  MAMMOTH_ASSIGN_OR_RETURN(
      std::string bytes,
      ReadFileRange(seg.path, wal::kSegmentHeaderBytes + in_seg, want));
  MAMMOTH_ASSIGN_OR_RETURN(size_t aligned,
                           FrameAlignedPrefix(bytes, bytes.size()));
  if (aligned == 0) {
    // A single record larger than the batch budget: ship it whole.
    if (bytes.size() < wal::kFrameHeaderBytes) return Status::OK();
    uint32_t len = 0;
    std::memcpy(&len, bytes.data(), sizeof(len));
    const uint64_t frame = wal::kFrameHeaderBytes + static_cast<uint64_t>(len);
    if (len > wal::kMaxRecordBytes ||
        frame > std::min<uint64_t>(avail, durable - rep->cursor)) {
      return Status::Corruption("repl: unframeable WAL range at lsn " +
                                std::to_string(rep->cursor));
    }
    MAMMOTH_ASSIGN_OR_RETURN(
        bytes,
        ReadFileRange(seg.path, wal::kSegmentHeaderBytes + in_seg, frame));
    MAMMOTH_ASSIGN_OR_RETURN(aligned, FrameAlignedPrefix(bytes, bytes.size()));
    if (aligned != bytes.size()) {
      return Status::Corruption("repl: oversized record failed verification");
    }
  }
  MAMMOTH_RETURN_IF_ERROR(
      SendFrame(rep->fd, server::FrameType::kReplRecords,
                EncodeRecords(rep->cursor, durable,
                              std::string_view(bytes).substr(0, aligned))));
  std::lock_guard<std::mutex> lock(mu_);
  rep->cursor += aligned;
  return Status::OK();
}

Status ReplicationSource::ShipSnapshot(const std::shared_ptr<Replica>& rep) {
  MAMMOTH_ASSIGN_OR_RETURN(CheckpointRef ref, ReadCheckpointRef(options_.dir));
  if (ref.checkpoint_lsn < rep->cursor) {
    return Status::Internal("repl: checkpoint older than subscriber cursor");
  }
  std::vector<std::string> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(ref.snapshot_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      files.push_back(
          it->path().lexically_relative(ref.snapshot_dir).string());
    }
  }
  if (ec) {
    return Status::IOError("repl: walk " + ref.snapshot_dir + ": " +
                           ec.message());
  }
  SnapBegin begin;
  begin.snapshot_lsn = ref.checkpoint_lsn;
  begin.next_txn_id = ref.next_txn_id;
  begin.nfiles = static_cast<uint32_t>(files.size());
  MAMMOTH_RETURN_IF_ERROR(SendFrame(rep->fd, server::FrameType::kReplSnapBegin,
                                    EncodeSnapBegin(begin)));
  for (const std::string& name : files) {
    const std::string path = ref.snapshot_dir + "/" + name;
    const uint64_t size = fs::file_size(path, ec);
    if (ec) {
      // A newer checkpoint GC'd the snapshot mid-transfer; drop the
      // subscriber, it reconnects and bootstraps from the new one.
      return Status::IOError("repl: snapshot vanished mid-transfer: " + path);
    }
    uint64_t offset = 0;
    do {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(
          size - offset, options_.snapshot_chunk_bytes));
      MAMMOTH_ASSIGN_OR_RETURN(std::string data,
                               ReadFileRange(path, offset, n));
      const bool last = offset + n == size;
      MAMMOTH_RETURN_IF_ERROR(
          SendFrame(rep->fd, server::FrameType::kReplFile,
                    EncodeFileChunk(name, offset, last, data)));
      offset += n;
    } while (offset < size);
  }
  SnapEnd end;
  end.snapshot_lsn = ref.checkpoint_lsn;
  MAMMOTH_RETURN_IF_ERROR(
      SendFrame(rep->fd, server::FrameType::kReplSnapEnd, EncodeSnapEnd(end)));
  std::lock_guard<std::mutex> lock(mu_);
  rep->cursor = ref.checkpoint_lsn;
  ++snapshots_served_;
  return Status::OK();
}

void ReplicationSource::SenderLoop(const std::shared_ptr<Replica>& rep) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) break;
    }
    if (!DrainAcks(rep, 0).ok()) break;
    const uint64_t durable = wal_->stats().durable_lsn;
    uint64_t cursor, acked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cursor = rep->cursor;
      acked = rep->acked;
    }
    if (cursor < durable) {
      Status st = ShipBatch(rep, durable);
      if (st.code() == StatusCode::kNotFound) st = ShipSnapshot(rep);
      if (!st.ok()) break;
    } else if (acked < cursor) {
      // Fully shipped but not fully replayed: block on the socket so an
      // ack releases the semi-sync barrier with no polling delay.
      if (!DrainAcks(rep, 50).ok()) break;
    } else {
      // Idle: wake as soon as a commit makes new bytes durable.
      (void)wal_->WaitDurablePast(cursor, 100);
    }
  }
  ::close(rep->fd);
  std::lock_guard<std::mutex> lock(mu_);
  rep->gone = true;
  cv_.notify_all();  // a vanished replica may release the commit barrier
}

}  // namespace mammoth::repl
