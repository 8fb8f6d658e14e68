#ifndef MAMMOTH_SERVER_REACTOR_H_
#define MAMMOTH_SERVER_REACTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "server/wire.h"
#include "sql/engine.h"

namespace mammoth::server {

class Server;

/// The server's network front-end (C10K): one event-loop thread owns
/// every client socket via non-blocking I/O — per-connection
/// read/write buffers, incremental frame reassembly — and hands complete
/// request frames to a bounded worker pool that executes them through
/// the server's AdmissionController. Responses come back over an eventfd
/// and are flushed under write-readiness, so ten thousand mostly-idle
/// connections cost ten thousand fds and buffers, not ten thousand
/// threads.
///
/// ### Pipelining model (documented choice: out-of-order, seq-tagged)
///
/// Seq-framed requests (kQuerySeq / kExecute) may overlap arbitrarily on
/// one connection; each response carries the request's sequence number
/// and completes in whatever order the workers finish. Plain kQuery
/// frames keep the old protocol's contract instead: they execute
/// strictly serially per connection (one in flight, the rest in a
/// backlog), so a legacy client that writes two queries back-to-back
/// still reads its two untagged responses in order. A duplicate
/// sequence number among a connection's in-flight requests is
/// session-fatal; 0 is reserved and rejected at decode.
///
/// ### Backpressure
///
/// A connection with `max_pipeline` requests in flight (or backlogged)
/// stops being read until responses drain; a connection whose unread
/// response backlog exceeds `max_wbuf_bytes` is dropped as a slow
/// consumer. Both bounds keep a hostile pipeliner from ballooning
/// server memory. Every bound is read from the server's ServerConfig.
class Reactor {
 public:
  explicit Reactor(Server* server);
  ~Reactor();

  /// Takes over accepting on `listen_fd` (borrowed; the server closes it
  /// after Stop()) and starts the loop + worker threads.
  Status Start(int listen_fd);

  /// Queues a "server draining" error to every connection and marks it
  /// for close-after-flush; in-flight requests still deliver their
  /// responses first. New connections are rejected.
  void BeginDrain();

  /// BeginDrain() + bounded shutdown: connections still open past
  /// `drain_force_millis` (e.g. pipelined clients that stopped reading)
  /// are closed with their buffers, then all threads join. Idempotent.
  void Stop();

  uint64_t pipelined_in_flight() const { return pipelined_.load(); }

 private:
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    uint32_t caps = 0;
    uint32_t events = 0;  ///< epoll interest currently registered
    std::string rbuf;
    std::string wbuf;
    size_t woff = 0;  ///< bytes of wbuf already sent
    std::unordered_set<uint32_t> inflight;  ///< seq-tagged requests out
    bool plain_inflight = false;  ///< a plain kQuery is executing
    std::deque<std::string> plain_backlog;  ///< serialized plain queries
    bool want_close = false;  ///< close once flushed and idle
    bool drain_notified = false;
    /// Engine session carrying this connection's transaction state;
    /// aborted (rollback) when the connection closes.
    sql::SessionPtr session;
  };

  /// A request handed to the worker pool (self-contained copies — the
  /// Conn may die while the job runs).
  struct Task {
    uint64_t conn_id = 0;
    uint32_t caps = 0;
    sql::SessionPtr session;  ///< kept alive even if the Conn dies
    /// Disconnect auto-rollback: abort the session's open transaction
    /// instead of running a query. Queued (not done inline on the loop
    /// thread) because the abort serializes behind any in-flight
    /// statement of the same session.
    bool abort_session = false;
    /// Tagged requests (seq != 0) count toward pipelined_in_flight.
    WireRequest request;
  };

  struct Completion {
    uint64_t conn_id = 0;
    uint32_t seq = 0;  ///< 0: the connection's plain kQuery finished
    std::string bytes;  ///< one fully encoded response frame
  };

  void Loop();
  void WorkerLoop();
  void Accept();
  void HandleReadable(Conn* conn);
  /// Decodes and dispatches complete frames out of conn->rbuf; stops at
  /// the pipeline bound. Returns false when the session turned fatal.
  bool ProcessBuffer(Conn* conn);
  void Submit(Conn* conn, Task task);
  void ApplyCompletions();
  /// Requests in flight or parked for this connection (backpressure
  /// metric against max_pipeline).
  static int PipelineDepth(const Conn* conn);
  /// Appends response bytes to the write buffer; false when the
  /// connection was dropped for exceeding max_wbuf_bytes.
  bool AppendOut(Conn* conn, std::string_view bytes);
  void FlushConn(Conn* conn);
  /// Recomputes the epoll interest set from the conn's state.
  void UpdateEvents(Conn* conn);
  void FatalError(Conn* conn, const Status& error);
  void CloseConn(uint64_t id);
  void DrainNotify(Conn* conn);
  void Wake();

  Server* const server_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> queue_;
  bool workers_stop_ = false;

  std::mutex done_mu_;
  std::vector<Completion> done_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> pipelined_{0};
};

}  // namespace mammoth::server

#endif  // MAMMOTH_SERVER_REACTOR_H_
