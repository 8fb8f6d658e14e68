#ifndef MAMMOTH_SERVER_CLIENT_H_
#define MAMMOTH_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "server/wire.h"

namespace mammoth::server {

struct ClientOptions {
  /// >0 arms SO_RCVTIMEO on the socket: a server that stops responding
  /// makes reads fail with kTimedOut instead of blocking forever.
  int recv_timeout_ms = 0;
};

/// A prepared statement as known to the client: the server-assigned id
/// plus the number of `?` placeholders to bind at EXECUTE.
struct PreparedHandle {
  uint64_t stmt_id = 0;
  uint32_t nparams = 0;
  /// Per-placeholder type hints (ParamType values, one per ordinal),
  /// sent by servers that negotiated kWireCapParamTypes; empty against
  /// older servers. Advisory — binding still type-checks server-side.
  std::vector<uint8_t> param_types;
};

/// Blocking client for the wire.h protocol. The classic surface is one
/// outstanding Query() at a time; against a server that negotiated
/// kWireCapPipeline it can additionally keep many seq-tagged queries in
/// flight (QueryAsync/Await — responses complete out of order and are
/// stashed until awaited), and with kWireCapPrepared it can
/// Prepare/ExecutePrepared, skipping server-side SQL parsing and
/// compilation per execution. Used by tests, the throughput benchmark
/// and `mammoth_shell --connect`.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& o) noexcept;
  Client& operator=(Client&& o) noexcept;

  /// Connects and performs the Hello handshake. `host` is resolved with
  /// getaddrinfo, so both numeric addresses and names work. A draining
  /// server answers with an Error frame, surfaced as its typed Status
  /// (kUnavailable) here.
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                const ClientOptions& options);
  static Result<Client> Connect(const std::string& host, uint16_t port) {
    return Connect(host, port, ClientOptions{});
  }

  /// Executes one statement, returning the decoded columnar result.
  /// Server-side failures carry their wire status code (e.g. kTimedOut
  /// for an admission-queue timeout); transport failures are kIOError.
  Result<mal::QueryResult> Query(const std::string& sql);

  /// Pipelining: sends one seq-tagged query without waiting and returns
  /// its sequence number. Needs the server's kWireCapPipeline.
  Result<uint32_t> QueryAsync(const std::string& sql);

  /// Blocks until the response for `seq` arrives (responses for other
  /// in-flight queries received meanwhile are stashed for their own
  /// Await). A response for a sequence number this client never sent is
  /// rejected as a protocol violation.
  Result<mal::QueryResult> Await(uint32_t seq);

  /// Number of queries sent but not yet awaited.
  size_t in_flight() const { return pending_.size(); }

  /// Transaction helpers: BEGIN / COMMIT / ROLLBACK on this connection's
  /// server-side session. Between Begin() and Commit() every statement
  /// of this connection runs inside the transaction: SELECTs read the
  /// BEGIN-time snapshot (plus own writes), DML stays invisible to other
  /// sessions until Commit(). A Commit() may fail with kConflict (another
  /// transaction wrote a clashing row first) — the transaction is then
  /// already rolled back and can simply be retried.
  Status Begin() { return Query("BEGIN").status(); }
  Status Commit() { return Query("COMMIT").status(); }
  Status Rollback() { return Query("ROLLBACK").status(); }

  /// Prepares a statement server-side (literals may be `?`). Needs the
  /// server's kWireCapPrepared.
  Result<PreparedHandle> Prepare(const std::string& sql);

  /// Executes a prepared statement with `params` bound to its
  /// placeholders, synchronously or pipelined.
  Result<mal::QueryResult> ExecutePrepared(const PreparedHandle& handle,
                                           const std::vector<Value>& params);
  Result<uint32_t> ExecutePreparedAsync(const PreparedHandle& handle,
                                        const std::vector<Value>& params);

  /// Sends a Close frame and closes the socket. Safe to skip: the
  /// destructor closes the socket either way.
  void Close();

  bool connected() const { return fd_ >= 0; }
  const HelloInfo& hello() const { return hello_; }
  /// Capabilities negotiated with the server (intersection of both
  /// sides' understanding).
  uint32_t caps() const { return caps_; }

 private:
  /// Reads frames off the socket until one is complete (short reads are
  /// the normal case); kTimedOut when SO_RCVTIMEO expires mid-frame.
  Result<Frame> ReadFrame();
  /// Files a seq-tagged response frame under its sequence number;
  /// rejects replies to sequence numbers not in flight.
  Status StashTagged(const Frame& frame);
  uint32_t NextSeq();

  int fd_ = -1;
  HelloInfo hello_;
  uint32_t caps_ = 0;
  std::string buffer_;  // bytes received past the last decoded frame
  uint32_t next_seq_ = 1;
  std::unordered_set<uint32_t> pending_;  // sent, response not yet seen
  std::unordered_map<uint32_t, Result<mal::QueryResult>> done_;  // stashed
};

}  // namespace mammoth::server

#endif  // MAMMOTH_SERVER_CLIENT_H_
