// End-to-end crash-recovery harness: forks a real mammoth_server on a
// durable directory, drives a concurrent commit storm over the wire,
// SIGKILLs the server mid-storm, then recovers the directory in-process
// and verifies that every acknowledged commit survived — the durability
// contract, checked against an actual dead process rather than an
// injected fault. A second server launch on the same directory then
// proves the recovery path of the binary itself.
//
// The server binary is located via $MAMMOTH_SERVER_BIN or the standard
// build layout; the suite skips (not fails) when it isn't built.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/table.h"
#include "server/client.h"
#include "wal/db.h"
#include "test_dirs.h"

namespace mammoth::wal {
namespace {

namespace fs = std::filesystem;

std::string FindServerBinary() {
  if (const char* env = std::getenv("MAMMOTH_SERVER_BIN")) {
    if (fs::exists(env)) return env;
  }
  // ctest runs from build/tests; a manual run may sit in build/ or the
  // repo root.
  for (const char* candidate :
       {"../examples/mammoth_server", "examples/mammoth_server",
        "build/examples/mammoth_server"}) {
    if (fs::exists(candidate)) return candidate;
  }
  return "";
}

struct ServerProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  uint16_t port = 0;
};

/// Forks + execs the server on `db_dir` with an ephemeral port, reads
/// its stdout until the listening line reveals the port. Returns a
/// default ServerProcess (pid -1) on any failure.
ServerProcess LaunchServer(const std::string& binary,
                           const std::string& db_dir) {
  ServerProcess proc;
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return proc;
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return proc;
  }
  if (pid == 0) {
    dup2(pipe_fds[1], STDOUT_FILENO);
    dup2(pipe_fds[1], STDERR_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    // Small checkpoint trigger so the storm crosses checkpoints too.
    execl(binary.c_str(), binary.c_str(), "--db-dir", db_dir.c_str(),
          "--port", "0", "--checkpoint-bytes", "65536",
          static_cast<char*>(nullptr));
    std::perror("exec mammoth_server");
    _exit(127);
  }
  close(pipe_fds[1]);
  proc.pid = pid;
  proc.stdout_fd = pipe_fds[0];

  // Read the startup banner line by line until the port shows up.
  std::string acc;
  char buf[256];
  while (acc.find("listening on") == std::string::npos) {
    const ssize_t n = read(proc.stdout_fd, buf, sizeof buf);
    if (n <= 0) {  // died before listening
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      close(proc.stdout_fd);
      return {};
    }
    acc.append(buf, static_cast<size_t>(n));
  }
  const size_t at = acc.find("listening on ");
  unsigned port = 0;
  if (std::sscanf(acc.c_str() + at, "listening on %*[^:]:%u", &port) != 1 ||
      port == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    close(proc.stdout_fd);
    return {};
  }
  proc.port = static_cast<uint16_t>(port);
  return proc;
}

void ReapServer(ServerProcess* proc) {
  if (proc->pid > 0) {
    waitpid(proc->pid, nullptr, 0);
    proc->pid = -1;
  }
  if (proc->stdout_fd >= 0) {
    close(proc->stdout_fd);
    proc->stdout_fd = -1;
  }
}

TEST(WalCrashTest, Kill9MidCommitStormKeepsEveryAckedCommit) {
  const std::string binary = FindServerBinary();
  if (binary.empty()) {
    GTEST_SKIP() << "mammoth_server binary not found "
                    "(set MAMMOTH_SERVER_BIN)";
  }
  const std::string dir = testutil::ProcessTempPath("mammoth_crash_storm");
  fs::remove_all(dir);

  ServerProcess proc = LaunchServer(binary, dir);
  ASSERT_GT(proc.pid, 0) << "server failed to launch";
  ASSERT_GT(proc.port, 0);

  {
    auto admin = server::Client::Connect("127.0.0.1", proc.port);
    ASSERT_TRUE(admin.ok()) << admin.status().ToString();
    ASSERT_TRUE(admin->Query("CREATE TABLE t (v BIGINT)").ok());
  }

  // The storm: every thread streams single-row inserts of unique values
  // and records which ones the server acknowledged, until the kill -9
  // severs its connection.
  constexpr int kThreads = 6;
  std::vector<std::thread> writers;
  std::vector<std::vector<int64_t>> acked(kThreads);
  std::atomic<uint64_t> total_acked{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      auto client = server::Client::Connect("127.0.0.1", proc.port);
      if (!client.ok()) return;
      for (int64_t j = 0;; ++j) {
        const int64_t v = static_cast<int64_t>(t) * 1000000 + j;
        auto r = client->Query("INSERT INTO t VALUES (" +
                               std::to_string(v) + ")");
        if (!r.ok()) return;  // the server is gone
        acked[t].push_back(v);
        ++total_acked;
      }
    });
  }

  // Let commits (and at least one checkpoint, usually) accumulate, then
  // pull the plug with no chance to flush anything.
  while (total_acked.load() < 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(kill(proc.pid, SIGKILL), 0);
  for (auto& w : writers) w.join();
  ReapServer(&proc);

  // Recover in-process: every acked value must be there, exactly once,
  // and nothing that was never inserted may appear.
  Catalog recovered;
  auto info = Recover(dir, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto table = recovered.Get("t");
  ASSERT_TRUE(table.ok());
  auto col = (*table)->ScanColumn("v");
  ASSERT_TRUE(col.ok());
  const BatPtr live = (*table)->LiveCandidates();

  std::set<int64_t> present;
  const size_t nrows = (*table)->VisibleRowCount();
  for (size_t i = 0; i < nrows; ++i) {
    const size_t pos = live ? static_cast<size_t>(live->OidAt(i)) : i;
    const int64_t v = (*col)->ValueAt<int64_t>(pos);
    EXPECT_TRUE(present.insert(v).second) << "duplicate row " << v;
  }
  size_t acked_total = 0;
  for (int t = 0; t < kThreads; ++t) {
    acked_total += acked[t].size();
    for (int64_t v : acked[t]) {
      EXPECT_TRUE(present.count(v)) << "acked commit lost: " << v;
    }
  }
  // Unacked in-flight inserts may legitimately have reached the disk;
  // anything recovered must at least be a value some thread attempted.
  EXPECT_GE(present.size(), acked_total);
  for (int64_t v : present) {
    const int64_t t = v / 1000000;
    ASSERT_TRUE(t >= 0 && t < kThreads) << "impossible value " << v;
    EXPECT_LT(v % 1000000, static_cast<int64_t>(acked[t].size()) + 2)
        << "value " << v << " was never attempted";
  }

  // Double recovery is bit-identical (replay idempotence).
  Catalog again;
  ASSERT_TRUE(Recover(dir, &again).ok());
  EXPECT_TRUE(CompareCatalogs(recovered, again).ok());

  // Finally, the binary itself must come back up on the scarred
  // directory and serve the recovered rows.
  ServerProcess proc2 = LaunchServer(binary, dir);
  ASSERT_GT(proc2.pid, 0) << "server failed to restart after crash";
  {
    auto client = server::Client::Connect("127.0.0.1", proc2.port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto r = client->Query("SELECT v FROM t");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->RowCount(), present.size());
  }
  kill(proc2.pid, SIGTERM);
  ReapServer(&proc2);
  fs::remove_all(dir);
}

// Multi-statement transaction storm under kill -9: each writer runs
// BEGIN / three INSERTs / COMMIT batches on its own table (one WAL
// Begin…Commit batch per transaction). The recovery contract is
// atomicity on top of durability: every acked COMMIT is fully present,
// every recovered batch is complete (never a partial transaction), and
// transactions still open at the kill — inserts done, COMMIT never
// issued — are fully absent, because nothing of a transaction reaches
// the log before COMMIT.
TEST(WalCrashTest, Kill9MidTxnStormCommitsAreAtomic) {
  const std::string binary = FindServerBinary();
  if (binary.empty()) {
    GTEST_SKIP() << "mammoth_server binary not found "
                    "(set MAMMOTH_SERVER_BIN)";
  }
  const std::string dir = testutil::ProcessTempPath("mammoth_crash_txn");
  fs::remove_all(dir);

  ServerProcess proc = LaunchServer(binary, dir);
  ASSERT_GT(proc.pid, 0) << "server failed to launch";
  ASSERT_GT(proc.port, 0);

  constexpr int kThreads = 4;
  constexpr int kBatch = 3;  // statements per transaction
  {
    auto admin = server::Client::Connect("127.0.0.1", proc.port);
    ASSERT_TRUE(admin.ok()) << admin.status().ToString();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(admin
                      ->Query("CREATE TABLE w" + std::to_string(t) +
                              " (v BIGINT)")
                      .ok());
    }
  }

  // Per thread: batches are numbered 0.. and acked as a prefix; a batch
  // counts as "commit sent" the moment Commit() goes on the wire (it may
  // then land fully or not at all, never partially) and as "acked" when
  // the COMMIT response came back ok.
  std::vector<std::thread> writers;
  std::vector<int64_t> commit_sent(kThreads, 0);
  std::vector<int64_t> commit_acked(kThreads, 0);
  std::atomic<uint64_t> total_acked{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      auto client = server::Client::Connect("127.0.0.1", proc.port);
      if (!client.ok()) return;
      const std::string table = "w" + std::to_string(t);
      for (int64_t j = 0;; ++j) {
        if (!client->Begin().ok()) return;
        for (int i = 0; i < kBatch; ++i) {
          const int64_t v = j * kBatch + i;
          if (!client->Query("INSERT INTO " + table + " VALUES (" +
                             std::to_string(v) + ")")
                   .ok()) {
            return;  // killed mid-transaction: batch j must not survive
          }
        }
        commit_sent[t] = j + 1;
        if (!client->Commit().ok()) return;  // batch j is now ambiguous
        commit_acked[t] = j + 1;
        ++total_acked;
      }
    });
  }

  while (total_acked.load() < 80) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(kill(proc.pid, SIGKILL), 0);
  for (auto& w : writers) w.join();
  ReapServer(&proc);

  Catalog recovered;
  auto info = Recover(dir, &recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  size_t total_rows = 0;
  for (int t = 0; t < kThreads; ++t) {
    auto table = recovered.Get("w" + std::to_string(t));
    ASSERT_TRUE(table.ok());
    auto col = (*table)->ScanColumn("v");
    ASSERT_TRUE(col.ok());
    const BatPtr live = (*table)->LiveCandidates();
    std::set<int64_t> present;
    const size_t nrows = (*table)->VisibleRowCount();
    total_rows += nrows;
    for (size_t i = 0; i < nrows; ++i) {
      const size_t pos = live ? static_cast<size_t>(live->OidAt(i)) : i;
      const int64_t v = (*col)->ValueAt<int64_t>(pos);
      EXPECT_TRUE(present.insert(v).second)
          << "duplicate row " << v << " in w" << t;
    }
    // Acked transactions: fully present.
    for (int64_t j = 0; j < commit_acked[t]; ++j) {
      for (int i = 0; i < kBatch; ++i) {
        EXPECT_TRUE(present.count(j * kBatch + i))
            << "acked txn " << j << " lost row " << i << " in w" << t;
      }
    }
    // Atomicity: whatever is present forms complete transactions whose
    // COMMIT was at least sent; an open transaction left nothing.
    for (int64_t v : present) {
      const int64_t j = v / kBatch;
      EXPECT_LT(j, commit_sent[t])
          << "row " << v << " of w" << t << " from a txn never committed";
      for (int i = 0; i < kBatch; ++i) {
        EXPECT_TRUE(present.count(j * kBatch + i))
            << "partial txn " << j << " recovered in w" << t;
      }
    }
  }
  ASSERT_GT(total_rows, 0u);

  // Replay idempotence, then the binary itself on the scarred directory.
  Catalog again;
  ASSERT_TRUE(Recover(dir, &again).ok());
  EXPECT_TRUE(CompareCatalogs(recovered, again).ok());
  ServerProcess proc2 = LaunchServer(binary, dir);
  ASSERT_GT(proc2.pid, 0) << "server failed to restart after crash";
  {
    auto client = server::Client::Connect("127.0.0.1", proc2.port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    size_t served = 0;
    for (int t = 0; t < kThreads; ++t) {
      auto r = client->Query("SELECT v FROM w" + std::to_string(t));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      served += r->RowCount();
    }
    EXPECT_EQ(served, total_rows);
  }
  kill(proc2.pid, SIGTERM);
  ReapServer(&proc2);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mammoth::wal
