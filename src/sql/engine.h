#ifndef MAMMOTH_SQL_ENGINE_H_
#define MAMMOTH_SQL_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/catalog.h"
#include "mal/interpreter.h"
#include "mal/optimizer.h"
#include "mal/program.h"
#include "parallel/exec_context.h"
#include "recycle/recycler.h"
#include "sql/ast.h"
#include "sql/prepared.h"
#include "txn/txn.h"

namespace mammoth::wal {
struct Record;
class TxnBuilder;
class Wal;
}  // namespace mammoth::wal

namespace mammoth::sql {

class Engine;

/// Per-session transaction state (one per connection; the embedded
/// Execute() surface uses an engine-internal default session). Opaque to
/// callers: all mutation goes through Engine::ExecuteSession. A session
/// serializes its own statements (pipelined wire frames of one
/// connection may race) but is independent of every other session.
class Session {
 public:
  Session();
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  /// Whether an explicit transaction is open (racy snapshot: stable only
  /// from the session's own statement stream).
  bool in_transaction() const { return in_txn_; }

 private:
  friend class Engine;

  uint64_t id_ = 0;
  /// Serializes statements of this session; taken *before* the engine
  /// lock (lock order: session mutex -> engine rw_mu_ -> txn manager).
  std::mutex mu_;
  bool in_txn_ = false;
  /// A failed statement inside an explicit transaction poisons it: every
  /// later statement fails until ROLLBACK (COMMIT rolls back and returns
  /// the poison error).
  bool poisoned_ = false;
  Status poison_;
  txn::Snapshot snap_;
  /// Logical WAL ops buffered statement by statement, logged as one
  /// Begin..Commit batch at COMMIT (ROLLBACK just drops them).
  std::unique_ptr<wal::TxnBuilder> ops_;
  /// Tables this transaction write-claimed, each with the delta mark
  /// taken at first claim — ROLLBACK restores these marks (physical
  /// truncation; the single-owner rule keeps them valid).
  std::vector<std::pair<TablePtr, Table::DeltaMark>> write_set_;
};

using SessionPtr = std::shared_ptr<Session>;

/// The SQL front-end of Figure 1: parses mini-SQL, compiles SELECTs into
/// MAL programs over the columnar back-end, runs the optimizer pipeline,
/// and interprets the result. DDL/DML statements act on the catalog
/// directly (INSERT/DELETE drive the delta machinery of core/table.h).
///
/// ### Concurrency rule (server sessions)
///
/// Statements run concurrently only on different sessions. Execute() and
/// ExecutePrepared() run on the engine's one default session, whose mutex
/// serializes them: calling Execute() from many threads is safe, but the
/// statements run one at a time. Concurrent reads need one session per
/// thread (CreateSession() + ExecuteSession()/ExecutePreparedSession()).
/// Across sessions a reader/writer lock arbitrates statement classes:
///
///   - SELECT takes the lock *shared*: reads on different sessions run in
///     parallel (their kernel parallelism is whatever ExecContext each
///     one carries; concurrent ParallelFor calls on one pool serialize).
///   - CREATE / INSERT / UPDATE / DELETE take the lock *exclusive*: a
///     write waits for in-flight reads and blocks new ones, so readers
///     never observe a half-applied delta or a reallocating StringHeap.
///
/// Returned results are immutable snapshots: string result columns are
/// re-interned into private heaps before the lock is released, so a
/// result outlives any later DML on the tables it came from.
///
/// Not covered by the lock (single-threaded use only): catalog() and
/// Compile() direct access, and the AttachRecycler()/EnableOptimizer()
/// setup calls (do them before going concurrent — the attached recycler
/// itself is internally synchronized and safe under concurrent sessions).
/// The last_*() introspection accessors are internally synchronized
/// but report *some* recent SELECT under concurrency, not a specific
/// one.
class Engine {
 public:
  Engine();

  /// Executes one statement. DDL/DML return an empty result. `ctx`
  /// scopes the kernel parallelism of this statement (a server passes
  /// the admission-granted slice of its shared pool). Runs on the
  /// engine's default session: auto-commit statements are safe from any
  /// thread but run one at a time, and explicit BEGIN/COMMIT/ROLLBACK on
  /// this surface assume a single caller (server connections get their
  /// own sessions).
  Result<mal::QueryResult> Execute(
      const std::string& statement,
      const parallel::ExecContext& ctx = parallel::ExecContext::Default());

  /// --- Sessions & transactions (§14) ---------------------------------

  /// Creates an independent session (per-connection transaction state).
  SessionPtr CreateSession();

  /// Executes one statement on `session`. Outside BEGIN/COMMIT this is
  /// exactly Execute(); inside an open transaction, SELECTs resolve
  /// against the transaction's snapshot and DML stays pending (invisible
  /// to other sessions, undone by ROLLBACK) until COMMIT.
  Result<mal::QueryResult> ExecuteSession(
      const SessionPtr& session, const std::string& statement,
      const parallel::ExecContext& ctx = parallel::ExecContext::Default());

  /// EXECUTE of a prepared statement on `session` (the wire kExecute
  /// path): prepared SELECTs read through the session snapshot, prepared
  /// DML joins the session's open transaction.
  Result<mal::QueryResult> ExecutePreparedSession(
      const SessionPtr& session, uint64_t stmt_id,
      const std::vector<Value>& params,
      const parallel::ExecContext& ctx = parallel::ExecContext::Default());

  /// Rolls back the session's open transaction, if any (disconnect path:
  /// a connection dying mid-transaction must not leave pending rows or a
  /// write claim behind). Idempotent.
  void AbortSession(const SessionPtr& session);

  /// Transaction counters (SERVER STATUS txn_* rows).
  txn::TxnStats txn_stats() const { return tm_.stats(); }

  /// Executes a ';'-separated script, returning the last SELECT's result.
  Result<mal::QueryResult> ExecuteScript(
      const std::string& script,
      const parallel::ExecContext& ctx = parallel::ExecContext::Default());

  /// PREPARE: parses `statement` once (literal positions may be `?`
  /// placeholders, ordinals left to right) and caches it keyed on the
  /// normalized text — two sessions preparing the same text share one
  /// entry. The wire-level kPrepare frame and the `PREPARE name AS ...`
  /// SQL surface both land here. PREPARE, EXECUTE and CHECKPOINT texts
  /// are refused with kInvalidArgument. Safe under concurrent sessions.
  Result<std::shared_ptr<PreparedStatement>> Prepare(
      const std::string& statement);

  /// EXECUTE: runs a prepared statement with `params` bound to its
  /// placeholders. SELECTs reuse the cached compiled + optimized MAL
  /// plan — skipping SQL parsing and SQL→MAL compilation — unless a
  /// DDL statement has bumped the schema version since the plan was
  /// built, in which case it is recompiled in place (counted as a cache
  /// miss). DML statements bind a private AST copy and take the normal
  /// exclusive path.
  Result<mal::QueryResult> ExecutePrepared(
      uint64_t stmt_id, const std::vector<Value>& params,
      const parallel::ExecContext& ctx = parallel::ExecContext::Default());

  PreparedStats prepared_stats() const { return prepared_.stats(); }
  void set_prepared_capacity(size_t n) { prepared_.set_capacity(n); }

  /// Compiles a parsed SELECT to MAL without running it (also used by
  /// tests and the quickstart example to print plans).
  Result<mal::Program> Compile(const SelectStmt& stmt) const;

  Catalog* catalog() { return catalog_.get(); }

  /// Attaches a recycler consulted by every subsequent query (§6.1).
  /// DML (INSERT/UPDATE/DELETE) clears it wholesale.
  void AttachRecycler(recycle::Recycler* recycler) { recycler_ = recycler; }

  /// Attaches a write-ahead log (normally via wal::OpenDatabase): every
  /// subsequent DDL/DML statement is logged as one transaction and not
  /// acknowledged until durable. The append happens under the exclusive
  /// lock (log order = apply order); the fsync wait happens *after* the
  /// lock is released, so concurrent sessions' commits batch under a
  /// single fsync (group commit). Also enables the CHECKPOINT command
  /// and the log-size checkpoint trigger.
  void AttachWal(wal::Wal* wal) { wal_ = wal; }

  /// Toggles the MAL optimizer pipeline (default on).
  void EnableOptimizer(bool on) { optimize_ = on; }

  /// Read-only mode (replica role): every mutating statement — plain or
  /// prepared, DDL or DML — is refused with StatusCode::kReadOnly before
  /// it touches the catalog. SELECT, CHECKPOINT and the
  /// PREPARE surface stay available. Flipped off by promotion.
  void set_read_only(bool on) {
    read_only_.store(on, std::memory_order_release);
  }
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Post-durability commit barrier, called after `wal_->Sync(lsn)` with
  /// the transaction's end LSN and *before* the commit is acknowledged.
  /// The replication source hooks its semi-sync wait here. Called without
  /// engine locks held; set before going concurrent.
  using CommitBarrier = std::function<Status(uint64_t lsn)>;
  void SetCommitBarrier(CommitBarrier barrier) {
    commit_barrier_ = std::move(barrier);
  }

  /// Replica-side replay: applies one shipped transaction's ops (between
  /// its kBegin/kCommit markers, which the applier strips) atomically
  /// under the exclusive lock via wal::ApplyRecord — the same machinery
  /// as crash recovery. Bypasses the read-only gate (it *is* the one
  /// writer a replica has) and does not log: the primary's WAL is the
  /// durability story.
  Status ApplyReplicatedTxn(const std::vector<wal::Record>& ops);

  /// Replica-side snapshot bootstrap: atomically replaces the whole
  /// catalog (loaded from a shipped checkpoint) under the exclusive
  /// lock. In-flight SELECT results stay valid — they snapshot their
  /// string columns and hold BATs by shared_ptr.
  Status ResetCatalogForReplication(std::shared_ptr<Catalog> catalog);

  /// Introspection for the last executed SELECT (by value: the fields
  /// are mutex-guarded against concurrent SELECTs).
  mal::RunStats last_run_stats() const;
  mal::PipelineReport last_opt_report() const;
  std::string last_plan_text() const;

  /// The most SELECTs that have run at once since the engine was created.
  /// Statements of one session never overlap, so a value of 2 or more
  /// shows that reads on different sessions ran in parallel.
  uint64_t peak_concurrent_selects() const {
    return selects_peak_.load(std::memory_order_relaxed);
  }

  /// Compression posture of the catalog, gathered under the shared lock
  /// (safe against concurrent DDL/DML): how many tables carry the
  /// compression policy, how many columns are stored compressed, and the
  /// codec vs logical bytes those columns occupy.
  struct CompressionStats {
    uint64_t compressed_tables = 0;
    uint64_t compressed_columns = 0;
    uint64_t compressed_bytes = 0;  ///< codec stream bytes held
    uint64_t logical_bytes = 0;     ///< uncompressed bytes they stand for
    uint64_t cache_bytes = 0;       ///< derived indexes those columns hold
  };
  CompressionStats compression_stats() const;

  /// Counters of the attached recycler; all-zero when none is attached.
  recycle::Recycler::Stats recycler_stats() const {
    return recycler_ != nullptr ? recycler_->stats()
                                : recycle::Recycler::Stats{};
  }

 private:
  /// Write context of one mutating statement: the transaction identity
  /// its rows are stamped with, the snapshot its predicates read through,
  /// and where claimed tables are recorded (the session's write set for
  /// explicit transactions, `touched` for auto-commit).
  struct WriteCtx {
    uint64_t txn_id = 0;
    uint64_t stamp = 0;
    txn::Snapshot snap;
    Session* session = nullptr;        ///< non-null inside BEGIN..COMMIT
    std::vector<TablePtr> touched;     ///< auto-commit: tables claimed
  };

  /// Claims `t` for the statement's transaction; kConflict when another
  /// transaction holds it. Records the claim (with a rollback mark) on
  /// first contact.
  Status ClaimTable(WriteCtx* w, const TablePtr& t);

  /// Tail of Execute() after parsing, the one statement dispatcher:
  /// routes `stmt` under the proper lock class (SELECT shared, mutations
  /// exclusive). Also the entry point of
  /// prepared DML after parameter binding. `session` is never null.
  Result<mal::QueryResult> ExecuteParsed(Session* session, Statement stmt,
                                         const parallel::ExecContext& ctx);
  /// ExecutePreparedSession body; caller holds the session mutex (also
  /// the target of the EXECUTE statement, whose caller already does).
  Result<mal::QueryResult> ExecutePreparedLocked(
      Session* session, uint64_t stmt_id, const std::vector<Value>& params,
      const parallel::ExecContext& ctx);
  Result<mal::QueryResult> RunBegin(Session* session);
  Result<mal::QueryResult> RunCommit(Session* session);
  Result<mal::QueryResult> RunRollback(Session* session);
  /// Rolls the session's open transaction back (marks restored, claims
  /// released, manager notified). Caller holds the session mutex.
  void RollbackLocked(Session* session);
  Result<mal::QueryResult> RunSelect(const SelectStmt& stmt,
                                     const parallel::ExecContext& ctx,
                                     const txn::Snapshot& snap);
  /// Runs an already compiled (and optimized) SELECT plan — the whole
  /// statement, HAVING, ORDER BY and LIMIT included — then re-interns its
  /// string result columns (snapshot rule). Caller holds the shared lock.
  Result<mal::QueryResult> RunCompiledSelect(mal::Program prog,
                                             const parallel::ExecContext& ctx,
                                             const txn::Snapshot& snap);
  /// The `PREPARE name AS <statement>` SQL surface: Prepare() of the
  /// body, bound to `name` for EXECUTE.
  Result<mal::QueryResult> RunPrepare(const PrepareStmt& stmt);
  /// The mutating statements. Each applies its full effect or none of it
  /// (statement atomicity via Table::Mark/Rollback) and, on success,
  /// appends its logical ops to `txn` for the WAL.
  Status RunCreate(const CreateStmt& stmt, wal::TxnBuilder* txn);
  Status RunAlter(const AlterStmt& stmt, wal::TxnBuilder* txn);
  Status RunInsert(const InsertStmt& stmt, wal::TxnBuilder* txn, WriteCtx* w);
  Status RunDelete(const DeleteStmt& stmt, wal::TxnBuilder* txn, WriteCtx* w);
  Status RunUpdate(const UpdateStmt& stmt, wal::TxnBuilder* txn, WriteCtx* w);

  /// Commit tail of a successful mutating statement: logs `txn`, drops
  /// the exclusive lock, and waits for durability (group commit). When
  /// the log-size trigger fires, checkpoints first — under the lock.
  Result<mal::QueryResult> CommitDurable(const wal::TxnBuilder& txn,
                                         std::unique_lock<std::shared_mutex>*
                                             lock);

  /// The CHECKPOINT admin statement.
  Result<mal::QueryResult> RunCheckpoint();

  std::shared_ptr<Catalog> catalog_;
  /// Transaction IDs, commit timestamps and snapshots (§14).
  txn::TransactionManager tm_;
  /// Session of the plain Execute() surface (embedded use, init scripts).
  SessionPtr default_session_;
  std::atomic<uint64_t> next_session_id_{1};
  PreparedCache prepared_;
  /// Bumped under the exclusive lock by DDL (CREATE, ALTER), a replica
  /// catalog reset and replicated batches that carry DDL — never by DML,
  /// COMMIT or ROLLBACK: Compile and the optimizer read only the schema.
  /// A prepared plan stamped with an older version recompiles lazily at
  /// its next EXECUTE (the shared lock makes the check race-free).
  std::atomic<uint64_t> schema_version_{0};
  wal::Wal* wal_ = nullptr;
  recycle::Recycler* recycler_ = nullptr;
  bool optimize_ = true;
  std::atomic<bool> read_only_{false};
  CommitBarrier commit_barrier_;

  /// Readers (SELECT) shared, writers (DDL/DML) exclusive; see above.
  /// Mutable so const introspection (compression_stats) can share-lock.
  mutable std::shared_mutex rw_mu_;
  /// Guards the last_* introspection fields (written under rw_mu_ held
  /// shared, so they need their own lock).
  mutable std::mutex intro_mu_;
  /// SELECTs inside RunCompiledSelect right now, and the most at once.
  std::atomic<uint64_t> selects_running_{0};
  std::atomic<uint64_t> selects_peak_{0};
  mal::RunStats last_stats_;
  mal::PipelineReport last_opt_;
  std::string last_plan_;
};

}  // namespace mammoth::sql

#endif  // MAMMOTH_SQL_ENGINE_H_
