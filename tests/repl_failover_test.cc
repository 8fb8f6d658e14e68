// Failover harness: forks a real primary mammoth_server on a durable
// directory plus two replica servers, drives a concurrent write storm
// over the wire, SIGKILLs the primary mid-storm, promotes the
// most-caught-up replica with PROMOTE, and verifies on the promoted
// node that every acknowledged write survived exactly once — the
// semi-sync replication contract, checked against an actual dead
// process. Binaries are located like in wal_crash_test.cc; the suite
// skips (not fails) when the server isn't built.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "test_dirs.h"

namespace mammoth::repl {
namespace {

namespace fs = std::filesystem;

std::string FindServerBinary() {
  if (const char* env = std::getenv("MAMMOTH_SERVER_BIN")) {
    if (fs::exists(env)) return env;
  }
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

/// Forks + execs a server with `extra_args`, reads stdout until the
/// listening banner reveals the ephemeral port.
ServerProcess LaunchServer(const std::string& binary,
                           const std::vector<std::string>& extra_args) {
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
    std::vector<const char*> argv = {binary.c_str(), "--port", "0"};
    for (const std::string& a : extra_args) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    execv(binary.c_str(), const_cast<char* const*>(argv.data()));
    std::perror("exec mammoth_server");
    _exit(127);
  }
  close(pipe_fds[1]);
  proc.pid = pid;
  proc.stdout_fd = pipe_fds[0];

  std::string acc;
  char buf[256];
  while (acc.find("listening on") == std::string::npos) {
    const ssize_t n = read(proc.stdout_fd, buf, sizeof buf);
    if (n <= 0) {
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

void KillAndReap(ServerProcess* proc, int sig) {
  if (proc->pid > 0) {
    kill(proc->pid, sig);
    waitpid(proc->pid, nullptr, 0);
    proc->pid = -1;
  }
  if (proc->stdout_fd >= 0) {
    close(proc->stdout_fd);
    proc->stdout_fd = -1;
  }
}

/// Reads one named counter from SERVER STATUS (-1 on any failure).
int64_t StatusCounter(uint16_t port, const std::string& name) {
  auto client = server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return -1;
  auto r = client->Query("SERVER STATUS");
  if (!r.ok()) return -1;
  for (size_t i = 0; i < r->RowCount(); ++i) {
    if (r->columns[0]->StringAt(i) == name) {
      return r->columns[1]->ValueAt<int64_t>(i);
    }
  }
  return -1;
}

TEST(ReplFailoverTest, Kill9ThenPromoteLosesNoAckedWrite) {
  const std::string binary = FindServerBinary();
  if (binary.empty()) {
    GTEST_SKIP() << "mammoth_server binary not found "
                    "(set MAMMOTH_SERVER_BIN)";
  }
  const std::string dir = testutil::ProcessTempPath("mammoth_failover");
  fs::remove_all(dir);

  // Primary: durable, small checkpoint trigger so the storm crosses
  // checkpoints (and late subscribers may bootstrap via snapshot).
  ServerProcess primary = LaunchServer(
      binary, {"--db-dir", dir + "/primary", "--checkpoint-bytes", "65536"});
  ASSERT_GT(primary.pid, 0) << "primary failed to launch";
  const std::string primary_addr =
      "127.0.0.1:" + std::to_string(primary.port);

  {
    auto admin = server::Client::Connect("127.0.0.1", primary.port);
    ASSERT_TRUE(admin.ok()) << admin.status().ToString();
    ASSERT_TRUE(admin->Query("CREATE TABLE t (v BIGINT)").ok());
  }

  ServerProcess replica_a =
      LaunchServer(binary, {"--replicate-from", primary_addr, "--db-dir",
                            dir + "/replica_a"});
  ServerProcess replica_b =
      LaunchServer(binary, {"--replicate-from", primary_addr, "--db-dir",
                            dir + "/replica_b"});
  ASSERT_GT(replica_a.pid, 0) << "replica A failed to launch";
  ASSERT_GT(replica_b.pid, 0) << "replica B failed to launch";

  // The storm: unique values per thread, recording every acked insert,
  // until the SIGKILL severs the connections.
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  std::vector<std::vector<int64_t>> acked(kThreads);
  std::atomic<uint64_t> total_acked{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      auto client = server::Client::Connect("127.0.0.1", primary.port);
      if (!client.ok()) return;
      for (int64_t j = 0;; ++j) {
        const int64_t v = static_cast<int64_t>(t) * 1000000 + j;
        auto r = client->Query("INSERT INTO t VALUES (" +
                               std::to_string(v) + ")");
        if (!r.ok()) return;  // the primary is gone
        acked[t].push_back(v);
        ++total_acked;
      }
    });
  }

  while (total_acked.load() < 300) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(kill(primary.pid, SIGKILL), 0);
  for (auto& w : writers) w.join();
  KillAndReap(&primary, SIGKILL);

  // Pick the most-caught-up replica (with semi-sync every acked write is
  // on at least one of them; promoting the max-LSN one covers all).
  const int64_t lsn_a = StatusCounter(replica_a.port, "repl_replayed_lsn");
  const int64_t lsn_b = StatusCounter(replica_b.port, "repl_replayed_lsn");
  ASSERT_GE(lsn_a, 0);
  ASSERT_GE(lsn_b, 0);
  ServerProcess* winner = lsn_a >= lsn_b ? &replica_a : &replica_b;
  ServerProcess* loser = lsn_a >= lsn_b ? &replica_b : &replica_a;

  auto client = server::Client::Connect("127.0.0.1", winner->port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto promoted = client->Query("PROMOTE");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();

  // Exactly-once: every acked write present, no duplicates, nothing
  // invented. Unacked in-flight inserts may legitimately have replicated.
  auto rows = client->Query("SELECT v FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<int64_t> present;
  for (size_t i = 0; i < rows->RowCount(); ++i) {
    const int64_t v = rows->columns[0]->ValueAt<int64_t>(i);
    EXPECT_TRUE(present.insert(v).second) << "duplicate row " << v;
  }
  size_t acked_total = 0;
  for (int t = 0; t < kThreads; ++t) {
    acked_total += acked[t].size();
    for (int64_t v : acked[t]) {
      EXPECT_TRUE(present.count(v)) << "acked write lost: " << v;
    }
  }
  EXPECT_GE(present.size(), acked_total);
  for (int64_t v : present) {
    const int64_t t = v / 1000000;
    ASSERT_TRUE(t >= 0 && t < kThreads) << "impossible value " << v;
    EXPECT_LT(v % 1000000, static_cast<int64_t>(acked[t].size()) + 2)
        << "value " << v << " was never attempted";
  }

  // The promoted node accepts writes and reports itself as a primary.
  ASSERT_TRUE(client->Query("INSERT INTO t VALUES (424242424242)").ok());
  EXPECT_EQ(StatusCounter(winner->port, "repl_role"), 0);

  KillAndReap(loser, SIGTERM);
  KillAndReap(winner, SIGTERM);
  fs::remove_all(dir);
}

// Multi-statement transactions across failover: writers run BEGIN /
// three INSERTs / COMMIT batches (one shipped Begin…Commit WAL batch per
// transaction), the primary dies mid-storm, a replica is promoted. The
// promoted node must hold transactions atomically — every acked COMMIT
// fully present, never a partial batch, open transactions absent —
// because replicas replay whole transaction batches, not single records.
TEST(ReplFailoverTest, Kill9ThenPromoteKeepsTxnsAtomic) {
  const std::string binary = FindServerBinary();
  if (binary.empty()) {
    GTEST_SKIP() << "mammoth_server binary not found "
                    "(set MAMMOTH_SERVER_BIN)";
  }
  const std::string dir = testutil::ProcessTempPath("mammoth_failover_txn");
  fs::remove_all(dir);

  ServerProcess primary = LaunchServer(
      binary, {"--db-dir", dir + "/primary", "--checkpoint-bytes", "65536"});
  ASSERT_GT(primary.pid, 0) << "primary failed to launch";
  const std::string primary_addr =
      "127.0.0.1:" + std::to_string(primary.port);

  constexpr int kThreads = 4;
  constexpr int kBatch = 3;
  {
    auto admin = server::Client::Connect("127.0.0.1", primary.port);
    ASSERT_TRUE(admin.ok()) << admin.status().ToString();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(admin
                      ->Query("CREATE TABLE w" + std::to_string(t) +
                              " (v BIGINT)")
                      .ok());
    }
  }
  ServerProcess replica = LaunchServer(
      binary,
      {"--replicate-from", primary_addr, "--db-dir", dir + "/replica"});
  ASSERT_GT(replica.pid, 0) << "replica failed to launch";

  std::vector<std::thread> writers;
  std::vector<int64_t> commit_sent(kThreads, 0);
  std::vector<int64_t> commit_acked(kThreads, 0);
  std::atomic<uint64_t> total_acked{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      auto client = server::Client::Connect("127.0.0.1", primary.port);
      if (!client.ok()) return;
      const std::string table = "w" + std::to_string(t);
      for (int64_t j = 0;; ++j) {
        if (!client->Begin().ok()) return;
        for (int i = 0; i < kBatch; ++i) {
          if (!client->Query("INSERT INTO " + table + " VALUES (" +
                             std::to_string(j * kBatch + i) + ")")
                   .ok()) {
            return;
          }
        }
        commit_sent[t] = j + 1;
        if (!client->Commit().ok()) return;
        commit_acked[t] = j + 1;
        ++total_acked;
      }
    });
  }

  while (total_acked.load() < 60) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(kill(primary.pid, SIGKILL), 0);
  for (auto& w : writers) w.join();
  KillAndReap(&primary, SIGKILL);

  auto client = server::Client::Connect("127.0.0.1", replica.port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto promoted = client->Query("PROMOTE");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();

  for (int t = 0; t < kThreads; ++t) {
    auto rows = client->Query("SELECT v FROM w" + std::to_string(t));
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::set<int64_t> present;
    for (size_t i = 0; i < rows->RowCount(); ++i) {
      const int64_t v = rows->columns[0]->ValueAt<int64_t>(i);
      EXPECT_TRUE(present.insert(v).second)
          << "duplicate row " << v << " in w" << t;
    }
    for (int64_t j = 0; j < commit_acked[t]; ++j) {
      for (int i = 0; i < kBatch; ++i) {
        EXPECT_TRUE(present.count(j * kBatch + i))
            << "acked txn " << j << " lost row " << i << " on promoted w"
            << t;
      }
    }
    for (int64_t v : present) {
      const int64_t j = v / kBatch;
      EXPECT_LT(j, commit_sent[t])
          << "row " << v << " of w" << t << " from a txn never committed";
      for (int i = 0; i < kBatch; ++i) {
        EXPECT_TRUE(present.count(j * kBatch + i))
            << "partial txn " << j << " replicated to w" << t;
      }
    }
  }

  // The promoted node runs transactions of its own.
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Query("INSERT INTO w0 VALUES (424242)").ok());
  ASSERT_TRUE(client->Commit().ok());
  auto check = client->Query("SELECT COUNT(*) FROM w0 WHERE v = 424242");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->columns[0]->ValueAt<int64_t>(0), 1);
  EXPECT_EQ(StatusCounter(replica.port, "repl_role"), 0);

  KillAndReap(&replica, SIGTERM);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mammoth::repl
