#ifndef MAMMOTH_SERVER_SERVER_H_
#define MAMMOTH_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "compress/compressed_kernels.h"
#include "parallel/task_pool.h"
#include "scan/shared_scan.h"
#include "server/admission.h"
#include "server/wire.h"
#include "sql/engine.h"
#include "wal/db.h"

namespace mammoth::repl {
class ReplicaApplier;
class ReplicationSource;
}  // namespace mammoth::repl

namespace mammoth::server {

class Reactor;

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back via port().
  uint16_t port = 0;
  /// Bound on concurrently connected sessions (an fd + buffers each);
  /// connections past the bound are rejected with an Error frame.
  int max_sessions = 32;
  /// Reactor worker threads executing requests. 0 derives
  /// max(2, admission.max_inflight) so admission, not the pool, is the
  /// concurrency bottleneck.
  int workers = 0;
  /// Per-connection cap on pipelined requests in flight; a connection at
  /// the cap stops being read until responses drain.
  int max_pipeline = 32;
  /// Per-connection cap on buffered unread response bytes; a slow
  /// consumer past it is disconnected.
  size_t max_wbuf_bytes = 64u << 20;
  /// Front-door query concurrency control (see admission.h).
  AdmissionConfig admission;
  /// Workers in the shared kernel TaskPool; 0 uses DefaultThreadCount().
  int threads = 0;
  /// Name reported in the Hello frame.
  std::string name = "mammothdb";
  /// Kept only for perfbench until ROADMAP item 8; has no fields and no
  /// effect (every select takes the direct kernel route).
  scan::SharedScanConfig shared_scan;
  /// Stop() gives draining sessions this long to finish and deliver
  /// results; past the deadline remaining session sockets are shut
  /// down so a wedged peer cannot hold up shutdown.
  int drain_force_millis = 10000;
  /// Durable database directory. Empty runs fully in memory (the
  /// pre-durability behaviour); set, the server recovers the directory
  /// into its engine on Start() and write-ahead-logs every DDL/DML with
  /// group commit (see src/wal/).
  std::string db_dir;
  /// WAL/recovery tuning used when `db_dir` is set.
  wal::DbOptions db;
  /// Replication (src/repl/): "host:port" of a running primary makes
  /// this server start as a *read replica* — it does not open `db_dir`
  /// at startup (the directory is reserved for promotion), marks its
  /// engine read-only, streams the primary's WAL and serves SELECTs.
  /// The PROMOTE command turns it into a writable primary at its
  /// replayed LSN. Empty (default): normal primary role; a durable
  /// primary accepts replica subscriptions automatically.
  std::string replicate_from;
  /// Primary-side semi-synchronous commits: a commit is acknowledged
  /// only once at least one connected replica has replayed it (waived
  /// with zero replicas, and bounded by a timeout against wedged ones).
  bool repl_semi_sync = true;
};

/// Monotonic counters + gauges exposed through stats() and the
/// `SERVER STATUS` wire command.
struct ServerStatsSnapshot {
  uint64_t sessions_total = 0;  ///< connections ever accepted as sessions
  uint64_t sessions_rejected = 0;  ///< bounced: session cap or draining
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;  ///< SQL/protocol errors (not admission)
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  int sessions_open = 0;
  bool draining = false;
  AdmissionStats admission;
  /// Kept only for perfbench until ROADMAP item 8: always zero, so the
  /// STATUS `shared_*` rows keep their place and read 0.
  scan::SharedScanStats shared_scans;
  bool durable = false;  ///< a WAL is attached (db_dir was set)
  wal::WalStats wal;
  uint64_t wal_recovered_txns = 0;  ///< transactions replayed at startup
  /// Compressed storage posture (tables/columns/bytes) of the catalog.
  sql::Engine::CompressionStats compression;
  /// Result bytes saved by compressed wire shipping (sessions that
  /// negotiated kWireCapCompressedResults).
  uint64_t wire_result_bytes_saved = 0;
  /// Gauge: connections currently owned by the epoll reactor, the same
  /// count as sessions_open. Both rows stay: STATUS row order is frozen.
  uint64_t epoll_sessions = 0;
  /// Gauge: seq-tagged requests currently in flight across all reactor
  /// connections.
  uint64_t pipelined_in_flight = 0;
  /// Prepared-statement cache counters of the embedded engine.
  sql::PreparedStats prepared;
  /// Replication posture. Every counter is always present (zero when
  /// not applicable) so the SERVER STATUS row set stays fixed-shape.
  uint64_t repl_role = 0;      ///< 0 = primary, 1 = replica
  uint64_t repl_replicas = 0;  ///< connected subscribers (primary side)
  uint64_t repl_shipped_lsn = 0;  ///< laggiest replica's send cursor
  uint64_t repl_acked_lsn = 0;    ///< laggiest replica's replayed ack
  uint64_t repl_replayed_lsn = 0;       ///< replica: applied through here
  uint64_t repl_source_durable_lsn = 0; ///< replica: primary's durable LSN
  uint64_t repl_lag_bytes = 0;  ///< durable-vs-replayed gap (either role)
  uint64_t repl_txns_applied = 0;  ///< replica: transactions replayed
  uint64_t repl_snapshots = 0;  ///< bootstraps served (primary) / received
  /// Recycler cache posture (zeros when no recycler is attached);
  /// compressed_bytes is the portion of the cache held in compressed form.
  recycle::Recycler::Stats recycler;
  /// Compressed-execution kernel counters (code-space selects, run folds,
  /// bounded projections vs their decode fallbacks).
  compress::KernelStats compressed_kernels;
  /// Transaction counters of the embedded engine (BEGIN/COMMIT/ROLLBACK
  /// plus write-write conflicts; txn_* STATUS rows).
  txn::TxnStats txn;
};

/// The MammothDB network server: a TCP server speaking the wire.h
/// protocol through one epoll front-end (Reactor: an event loop owning
/// every socket plus a bounded worker pool), up to `max_sessions`
/// connections. Each request runs through the shared sql::Engine (which
/// serializes DDL/DML against concurrent SELECTs; see engine.h) after
/// passing the AdmissionController, which bounds in-flight queries and
/// hands each one an ExecContext over the server's single TaskPool.
///
/// Lifecycle: Start() binds and starts the reactor; BeginDrain()
/// flips the server into reject mode (new connections and new queries
/// get a kUnavailable Error frame; in-flight queries finish and deliver
/// their results); Stop() drains and joins everything. The destructor
/// calls Stop().
class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts accepting. Fails with kIOError when the
  /// address cannot be bound. Opens durable storage first when
  /// `db_dir` is configured (unless already opened explicitly).
  Status Start();

  /// Recovers `config.db_dir` into the engine and attaches the WAL.
  /// Called by Start(); callable earlier to inspect the recovered
  /// catalog before going live (e.g. to seed a fresh database only).
  /// Idempotent; no-op when `db_dir` is empty.
  Status OpenDurableStorage();

  /// Recovery outcome of OpenDurableStorage() (default-constructed when
  /// the server runs in memory).
  const wal::RecoveryInfo& recovery_info() const { return recovery_info_; }

  /// Stops admitting work: queued queries and new connections/queries
  /// are rejected with typed Error frames; in-flight queries drain.
  void BeginDrain();

  /// BeginDrain() + waits for sessions to drain, then joins all server
  /// threads and closes the listening socket. Idempotent.
  void Stop();

  /// The actual listening port (after Start()).
  uint16_t port() const { return port_; }

  /// The embedded engine. Populate it (e.g. CREATE/INSERT) before
  /// Start(); once connections are live, access goes through the
  /// engine's statement calls (each connection runs its own session via
  /// ExecuteSession/ExecutePreparedSession), whose locks arbitrate
  /// readers and writers.
  sql::Engine* engine() { return &engine_; }

  ServerStatsSnapshot stats() const;

  /// The `SERVER STATUS` result relation: (counter:str, value:lng).
  /// The row *ordering is a wire contract* (stable machine-readable
  /// positions; see DESIGN.md §12): new counters append, existing rows
  /// never move or disappear within a wire version.
  static mal::QueryResult StatusResult(const ServerStatsSnapshot& s);

  /// The PROMOTE command body (also intercepted from SQL like SERVER
  /// STATUS): stops replication at a transaction boundary, reopens
  /// `db_dir` as a fresh WAL at the replayed LSN (when configured),
  /// flips the engine writable and starts accepting subscribers of its
  /// own. Errors with kInvalidArgument on a server that is not a
  /// replica. Returns a one-row relation (promoted_lsn).
  Result<mal::QueryResult> Promote();

 private:
  friend class Reactor;

  /// Executes one request on a reactor worker — SERVER STATUS / PROMOTE
  /// intercepts, admission, engine — and returns exactly one fully
  /// encoded response frame (kResult / kError, or their seq-tagged twins
  /// when request.seq != 0). `session` carries the connection's
  /// transaction state (BEGIN/COMMIT/ROLLBACK).
  std::string RunRequest(const WireRequest& request, uint32_t caps,
                         const sql::SessionPtr& session);
  /// Handles a kPrepare frame (no admission: preparing is one parse) and
  /// returns the encoded kPrepared or kErrorSeq response frame. `caps`
  /// gates the parameter-type metadata suffix (kWireCapParamTypes).
  std::string HandlePrepareFrame(uint32_t seq, const std::string& text,
                                 uint32_t caps);
  /// Capability bits offered in the Hello frame (kWireCapReplication
  /// only when this server can actually serve a WAL stream).
  uint32_t AdvertisedCaps() const;
  /// Hands a subscribed socket (already past kReplSubscribe; `leftover`
  /// is any bytes read beyond that frame) to the replication source.
  /// On success the source owns the fd; on error the caller still does.
  Status AdoptReplica(int fd, uint64_t start_lsn, std::string leftover);
  /// Thread-safe accessors for the replication endpoints (Promote()
  /// creates the source after startup, so bare member reads would race).
  repl::ReplicationSource* repl_source() const;
  repl::ReplicaApplier* repl_applier() const;

  const ServerConfig config_;
  /// Declared before engine_ (which holds a pointer to it) so it is
  /// destroyed after every engine user is gone.
  std::unique_ptr<wal::Wal> wal_;
  wal::RecoveryInfo recovery_info_;
  bool storage_opened_ = false;
  sql::Engine engine_;
  std::unique_ptr<parallel::TaskPool> pool_;
  AdmissionController admission_;
  /// The network front-end (null until Start() succeeds).
  std::unique_ptr<Reactor> reactor_;
  /// Replication endpoints; repl_mu_ guards the *pointers* (Promote()
  /// swaps them while sessions run), the objects synchronize themselves.
  mutable std::mutex repl_mu_;
  std::unique_ptr<repl::ReplicationSource> repl_source_;
  std::unique_ptr<repl::ReplicaApplier> repl_applier_;
  std::atomic<bool> replica_role_{false};
  std::mutex promote_mu_;  ///< serializes concurrent PROMOTEs

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};  // Stop() idempotence

  /// Connections the reactor currently owns (sessions_open and
  /// epoll_sessions STATUS rows).
  std::atomic<int> sessions_open_{0};
  std::atomic<uint64_t> next_session_id_{1};

  std::atomic<uint64_t> sessions_total_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> wire_result_bytes_saved_{0};
};

}  // namespace mammoth::server

#endif  // MAMMOTH_SERVER_SERVER_H_
