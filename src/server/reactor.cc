#include "server/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "repl/repl_wire.h"
#include "server/server.h"

namespace mammoth::server {

namespace {

/// epoll_event user-data keys for the two non-connection fds.
constexpr uint64_t kListenKey = UINT64_MAX;
constexpr uint64_t kWakeKey = UINT64_MAX - 1;

/// Loop tick: bounds how late the loop notices drain/stop flags.
constexpr int kTickMillis = 100;
constexpr size_t kRecvChunk = 64 * 1024;

/// Compact the flushed prefix of a write buffer once it passes this.
constexpr size_t kWoffCompact = 1u << 20;

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// Best-effort error delivery to a connection we refuse to keep: the
/// socket is fresh, so one small frame fits the send buffer.
void RejectSync(int fd, const Status& error) {
  const std::string frame = EncodeFrame(FrameType::kError, EncodeError(error));
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  ::close(fd);
}

}  // namespace

Reactor::Reactor(Server* server) : server_(server) {}

Reactor::~Reactor() { Stop(); }

Status Reactor::Start(int listen_fd) {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("reactor already started");
  }
  listen_fd_ = listen_fd;
  MAMMOTH_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1(): ") +
                           std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::IOError(std::string("eventfd(): ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  const ServerConfig& config = server_->config_;
  const int nworkers = config.workers > 0
                           ? config.workers
                           : std::max(2, config.admission.max_inflight);
  workers_.reserve(static_cast<size_t>(nworkers));
  for (int i = 0; i < nworkers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Reactor::BeginDrain() {
  draining_.store(true);
  Wake();
}

void Reactor::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  draining_.store(true);
  stop_requested_.store(true);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void Reactor::Wake() {
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void Reactor::Loop() {
  std::vector<epoll_event> events(512);
  auto force_at = std::chrono::steady_clock::time_point::max();
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), kTickMillis);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const uint64_t key = events[i].data.u64;
      const uint32_t ev = events[i].events;
      if (key == kListenKey) {
        Accept();
        continue;
      }
      if (key == kWakeKey) {
        uint64_t buf;
        while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
        }
        continue;  // completions are applied below every pass
      }
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;  // closed earlier this pass
      Conn* conn = it->second.get();
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(key);
        continue;
      }
      if ((ev & EPOLLIN) != 0) {
        HandleReadable(conn);  // may close: re-find before EPOLLOUT
        it = conns_.find(key);
        if (it == conns_.end()) continue;
        conn = it->second.get();
      }
      if ((ev & EPOLLOUT) != 0) FlushConn(conn);
    }
    ApplyCompletions();
    if (draining_.load()) {
      // Snapshot ids: DrainNotify can close (erase) idle connections.
      std::vector<uint64_t> ids;
      ids.reserve(conns_.size());
      for (const auto& [id, conn] : conns_) {
        if (!conn->drain_notified) ids.push_back(id);
      }
      for (uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it != conns_.end()) DrainNotify(it->second.get());
      }
    }
    if (stop_requested_.load()) {
      const auto now = std::chrono::steady_clock::now();
      if (force_at == std::chrono::steady_clock::time_point::max()) {
        force_at = now + std::chrono::milliseconds(
                             server_->config_.drain_force_millis);
      }
      if (conns_.empty()) break;
      if (now >= force_at) {
        // Bounded shutdown: surviving connections (pipelined clients
        // that stopped reading their responses) are dropped with their
        // buffers.
        std::vector<uint64_t> ids;
        ids.reserve(conns_.size());
        for (const auto& [id, conn] : conns_) ids.push_back(id);
        for (uint64_t id : ids) CloseConn(id);
        break;
      }
    }
  }
}

void Reactor::Accept() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    if (draining_.load()) {
      ++server_->sessions_rejected_;
      RejectSync(fd, Status::Unavailable("server draining"));
      continue;
    }
    const int max_sessions = server_->config_.max_sessions;
    if (static_cast<int>(conns_.size()) >= max_sessions) {
      ++server_->sessions_rejected_;
      RejectSync(fd, Status::Unavailable("session limit (" +
                                         std::to_string(max_sessions) +
                                         ") reached"));
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = server_->next_session_id_.fetch_add(1);
    ++server_->sessions_total_;
    ++server_->sessions_open_;
    auto owned = std::make_unique<Conn>();
    Conn* conn = owned.get();
    conn->fd = fd;
    conn->id = id;
    conn->session = server_->engine_.CreateSession();
    conns_[id] = std::move(owned);
    HelloInfo hello;
    hello.session_id = id;
    hello.server_name = server_->config_.name;
    hello.caps = server_->AdvertisedCaps();
    conn->wbuf = EncodeFrame(FrameType::kHello, EncodeHello(hello));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    conn->events = EPOLLIN;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    FlushConn(conn);
  }
}

int Reactor::PipelineDepth(const Conn* conn) {
  return static_cast<int>(conn->inflight.size() +
                          conn->plain_backlog.size() +
                          (conn->plain_inflight ? 1 : 0));
}

void Reactor::HandleReadable(Conn* conn) {
  const uint64_t id = conn->id;
  while (!conn->want_close && !draining_.load() &&
         PipelineDepth(conn) < server_->config_.max_pipeline) {
    char chunk[kRecvChunk];
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      server_->bytes_in_ += static_cast<uint64_t>(n);
      conn->rbuf.append(chunk, static_cast<size_t>(n));
      if (!ProcessBuffer(conn)) {
        CloseConn(id);
        return;
      }
      if (static_cast<size_t>(n) < sizeof(chunk)) break;  // drained
      continue;
    }
    if (n == 0) {  // peer closed; pending responses have no reader
      CloseConn(id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(id);
    return;
  }
  FlushConn(conn);  // also recomputes epoll interest; may close
}

bool Reactor::ProcessBuffer(Conn* conn) {
  while (!conn->want_close &&
         PipelineDepth(conn) < server_->config_.max_pipeline) {
    Frame frame;
    auto consumed =
        DecodeFrame(conn->rbuf.data(), conn->rbuf.size(), &frame);
    if (!consumed.ok()) {
      FatalError(conn, consumed.status());
      return true;
    }
    if (*consumed == 0) break;  // incomplete frame: wait for more bytes
    conn->rbuf.erase(0, *consumed);
    switch (frame.type) {
      case FrameType::kClose:
        conn->want_close = true;
        break;
      case FrameType::kCaps: {
        auto caps = DecodeCaps(frame.payload);
        if (!caps.ok()) {
          FatalError(conn, caps.status());
          return true;
        }
        conn->caps = *caps & server_->AdvertisedCaps();
        break;
      }
      case FrameType::kPrepare: {
        // Answered inline on the loop thread: preparing is one parse,
        // cheaper than a queue round-trip.
        auto sp = SplitSeq(frame.payload);
        if (!sp.ok()) {
          FatalError(conn, sp.status());
          return true;
        }
        if (!AppendOut(conn, server_->HandlePrepareFrame(
                                 sp->seq, std::string(sp->rest),
                                 conn->caps))) {
          return false;
        }
        break;
      }
      case FrameType::kReplSubscribe: {
        auto sub = repl::DecodeSubscribe(frame.payload);
        if (!sub.ok()) {
          FatalError(conn, sub.status());
          return true;
        }
        if (conn->plain_inflight || !conn->inflight.empty()) {
          FatalError(conn, Status::InvalidArgument(
                               "repl: subscribe with requests in flight"));
          return true;
        }
        // Detach: the replication source takes the socket over. Flush
        // anything still buffered first (normally nothing — the Hello
        // went out at accept) so the subscriber sees frames in order.
        while (conn->woff < conn->wbuf.size()) {
          pollfd pfd{conn->fd, POLLOUT, 0};
          if (::poll(&pfd, 1, 1000) <= 0) break;
          const ssize_t n = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                                   conn->wbuf.size() - conn->woff,
                                   MSG_NOSIGNAL);
          if (n > 0) {
            conn->woff += static_cast<size_t>(n);
            server_->bytes_out_ += static_cast<uint64_t>(n);
            continue;
          }
          if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                        errno == EWOULDBLOCK)) {
            continue;
          }
          break;
        }
        const int fd = conn->fd;
        std::string leftover = std::move(conn->rbuf);
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        conns_.erase(conn->id);
        --server_->sessions_open_;
        if (Status adopted = server_->AdoptReplica(fd, sub->start_lsn,
                                                   std::move(leftover));
            !adopted.ok()) {
          RejectSync(fd, adopted);
        }
        // The Conn is gone; the caller's CloseConn(id) no-ops.
        return false;
      }
      default: {
        auto request = DecodeRequest(frame);
        if (!request.ok()) {
          FatalError(conn, request.status());
          return true;
        }
        if (request->seq == 0 && conn->plain_inflight) {
          // Old-protocol ordering: plain queries run one at a time per
          // connection, responses in request order.
          conn->plain_backlog.push_back(std::move(request->sql));
          break;
        }
        if (request->seq != 0 && !conn->inflight.insert(request->seq).second) {
          FatalError(conn, Status::InvalidArgument(
                               "wire: duplicate in-flight sequence number " +
                               std::to_string(request->seq)));
          return true;
        }
        Task task;
        task.request = std::move(*request);
        Submit(conn, std::move(task));
        break;
      }
    }
  }
  return true;
}

void Reactor::Submit(Conn* conn, Task task) {
  task.conn_id = conn->id;
  task.caps = conn->caps;
  task.session = conn->session;
  if (task.request.seq != 0) {
    ++pipelined_;
  } else {
    conn->plain_inflight = true;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

void Reactor::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (task.abort_session) {
      server_->engine_.AbortSession(task.session);
      continue;
    }
    Completion done;
    done.conn_id = task.conn_id;
    done.seq = task.request.seq;
    done.bytes = server_->RunRequest(task.request, task.caps, task.session);
    if (done.seq != 0) --pipelined_;
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(std::move(done));
    }
    Wake();
  }
}

void Reactor::ApplyCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-flight
    Conn* conn = it->second.get();
    if (c.seq != 0) {
      conn->inflight.erase(c.seq);
    } else {
      conn->plain_inflight = false;
      if (!conn->plain_backlog.empty() && !conn->want_close) {
        Task task;
        task.request.sql = std::move(conn->plain_backlog.front());
        conn->plain_backlog.pop_front();
        Submit(conn, std::move(task));
      }
    }
    if (!AppendOut(conn, c.bytes)) continue;  // dropped: slow consumer
    // The freed pipeline slot may unpark frames already buffered.
    if (!ProcessBuffer(conn)) {
      CloseConn(c.conn_id);
      continue;
    }
    FlushConn(conn);
  }
}

bool Reactor::AppendOut(Conn* conn, std::string_view bytes) {
  conn->wbuf.append(bytes);
  if (conn->wbuf.size() - conn->woff > server_->config_.max_wbuf_bytes) {
    CloseConn(conn->id);  // slow consumer: unread backlog past the cap
    return false;
  }
  return true;
}

void Reactor::FlushConn(Conn* conn) {
  while (conn->woff < conn->wbuf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->wbuf.data() + conn->woff,
               conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<size_t>(n);
      server_->bytes_out_ += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn->id);
    return;
  }
  if (conn->woff >= conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->woff = 0;
  } else if (conn->woff > kWoffCompact) {
    conn->wbuf.erase(0, conn->woff);
    conn->woff = 0;
  }
  if (conn->want_close && conn->wbuf.empty() && conn->inflight.empty() &&
      !conn->plain_inflight && conn->plain_backlog.empty()) {
    CloseConn(conn->id);
    return;
  }
  UpdateEvents(conn);
}

void Reactor::UpdateEvents(Conn* conn) {
  uint32_t desired = 0;
  if (!conn->want_close && !draining_.load() &&
      PipelineDepth(conn) < server_->config_.max_pipeline) {
    desired |= EPOLLIN;
  }
  if (conn->woff < conn->wbuf.size()) desired |= EPOLLOUT;
  if (desired == conn->events) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->events = desired;
}

void Reactor::FatalError(Conn* conn, const Status& error) {
  // Protocol violation: answer with one final untagged Error frame and
  // close once it (and any pending responses) flushed.
  (void)AppendOut(conn,
                  EncodeFrame(FrameType::kError, EncodeError(error)));
  conn->want_close = true;
}

void Reactor::DrainNotify(Conn* conn) {
  conn->drain_notified = true;
  conn->want_close = true;
  if (AppendOut(conn, EncodeFrame(FrameType::kError,
                                  EncodeError(Status::Unavailable(
                                      "server draining"))))) {
    FlushConn(conn);
  }
}

void Reactor::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  // Disconnect auto-rollback: an open transaction must not outlive its
  // connection. Runs on a worker — it serializes behind any in-flight
  // statement of this session, which must not stall the loop thread.
  if (conn->session != nullptr && conn->session->in_transaction()) {
    Task abort;
    abort.abort_session = true;
    abort.session = conn->session;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_.push_back(std::move(abort));
    }
    queue_cv_.notify_one();
  }
  conns_.erase(it);
  --server_->sessions_open_;
}

}  // namespace mammoth::server
