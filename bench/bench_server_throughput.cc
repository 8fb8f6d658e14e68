// End-to-end server throughput: N concurrent wire-protocol clients
// hammer one server over loopback with a small SELECT mix. Sweeps the
// client count 1..64 and reports qps plus p50/p99 per-query latency, so
// BENCH_server_throughput.json tracks how session handling, admission
// control and the engine's reader lock scale together.
//
// MAMMOTH_BENCH_ROWS overrides the table size (default 20000).

#include <arpa/inet.h>
#include <benchmark/benchmark.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/table.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using namespace mammoth;

size_t BenchRows() {
  const char* env = std::getenv("MAMMOTH_BENCH_ROWS");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20000;
}

void Populate(sql::Engine* engine, size_t rows) {
  auto st = engine->Execute(
      "CREATE TABLE metrics (id INT, value INT, tag VARCHAR(16))");
  if (!st.ok()) std::abort();
  constexpr size_t kBatch = 1000;
  for (size_t base = 0; base < rows; base += kBatch) {
    std::string insert = "INSERT INTO metrics VALUES ";
    const size_t end = std::min(base + kBatch, rows);
    for (size_t i = base; i < end; ++i) {
      if (i > base) insert += ", ";
      const char* tag = i % 2 == 0 ? "even" : "odd";
      insert += "(" + std::to_string(i) + ", " +
                std::to_string((i * 131) % 10000) + ", '" + tag + "')";
    }
    if (!engine->Execute(insert).ok()) std::abort();
  }
}

const std::vector<std::string>& QueryMix() {
  static const std::vector<std::string> mix = {
      "SELECT COUNT(*) FROM metrics WHERE value >= 2500 AND value <= 7500",
      "SELECT tag, SUM(value) FROM metrics GROUP BY tag",
      "SELECT id FROM metrics WHERE value < 200 ORDER BY id LIMIT 50",
  };
  return mix;
}

void BM_ServerThroughput(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kQueriesPerClient = 8;

  server::ServerConfig config;
  config.max_sessions = clients + 4;
  config.admission.max_inflight = 8;
  config.admission.queue_timeout_ms = 60000;
  server::Server server(config);
  Populate(server.engine(), BenchRows());
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  // Connect once, outside the timed region: we measure query
  // throughput, not handshakes.
  std::vector<server::Client> conns;
  conns.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    auto c = server::Client::Connect("127.0.0.1", server.port());
    if (!c.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    conns.push_back(std::move(*c));
  }

  std::vector<double> latencies_ms;
  std::atomic<bool> failed{false};
  int64_t total_queries = 0;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(clients);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        per_thread[t].reserve(kQueriesPerClient);
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const std::string& sql =
              QueryMix()[(t + q) % QueryMix().size()];
          const auto q0 = std::chrono::steady_clock::now();
          if (!conns[t].Query(sql).ok()) failed.store(true);
          per_thread[t].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - q0)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    state.SetIterationTime(seconds);
    total_queries += static_cast<int64_t>(clients) * kQueriesPerClient;
    for (auto& v : per_thread) {
      latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
    }
  }
  if (failed.load()) state.SkipWithError("query failed");

  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = percentile(0.50);
  state.counters["p99_ms"] = percentile(0.99);
  state.counters["clients"] = clients;
}

BENCHMARK(BM_ServerThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Scan-heavy mix: every query is a wide range scan over one big table,
// stored plain (second arg 0) or after ALTER TABLE ... COMPRESS (1).
// Besides qps it reports, from compress::KernelStats, which route the
// selects took over the compressed table: direct_select_ratio (answered
// on the compressed image against decoded chunk by chunk) and
// full_decodes_per_query (whole-column decodes). Both read 0 over plain
// storage.

mammoth::TablePtr BigScanTable(size_t nrows) {
  using namespace mammoth;
  BatPtr id = Bat::New(PhysType::kInt64);
  id->Resize(nrows);
  int64_t* idp = id->MutableTailData<int64_t>();
  BatPtr val = Bat::New(PhysType::kInt64);
  val->Resize(nrows);
  int64_t* valp = val->MutableTailData<int64_t>();
  Rng rng(77);
  for (size_t i = 0; i < nrows; ++i) {
    idp[i] = static_cast<int64_t>(i);
    valp[i] = static_cast<int64_t>(rng.Next() % 100000);
  }
  auto t = Table::FromColumns(
      "metrics_big",
      {{"id", PhysType::kInt64}, {"val", PhysType::kInt64}},
      {id, val});
  if (!t.ok()) std::abort();
  return *t;
}

std::string ScanHeavyQuery(int i) {
  const int lo = 2500 * (i % 4);
  const int hi = lo + 85000;
  return "SELECT COUNT(*), SUM(val) FROM metrics_big WHERE val >= " +
         std::to_string(lo) + " AND val <= " + std::to_string(hi);
}

void BM_ServerScanHeavy(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const bool compressed = state.range(1) != 0;
  constexpr int kQueriesPerClient = 4;
  constexpr size_t kChunkRows = size_t{1} << 16;

  server::ServerConfig config;
  config.max_sessions = clients + 4;
  config.admission.max_inflight = 8;
  config.admission.queue_timeout_ms = 60000;
  server::Server server(config);
  if (!server.engine()
           ->catalog()
           ->Register(BigScanTable(16 * kChunkRows + 321))
           .ok()) {
    state.SkipWithError("register failed");
    return;
  }
  if (compressed &&
      !server.engine()->Execute("ALTER TABLE metrics_big COMPRESS").ok()) {
    state.SkipWithError("compress failed");
    return;
  }
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  std::vector<server::Client> conns;
  conns.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    auto c = server::Client::Connect("127.0.0.1", server.port());
    if (!c.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    conns.push_back(std::move(*c));
  }

  std::atomic<bool> failed{false};
  int64_t total_queries = 0;
  const compress::KernelStats before = server.stats().compressed_kernels;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        for (int q = 0; q < kQueriesPerClient; ++q) {
          if (!conns[t].Query(ScanHeavyQuery(t + q)).ok()) {
            failed.store(true);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    total_queries += static_cast<int64_t>(clients) * kQueriesPerClient;
  }
  const compress::KernelStats after = server.stats().compressed_kernels;
  if (failed.load()) state.SkipWithError("query failed");

  const uint64_t direct = after.selects_direct - before.selects_direct;
  const uint64_t selects =
      direct + after.selects_fallback - before.selects_fallback;
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kIsRate);
  state.counters["direct_select_ratio"] =
      selects == 0 ? 0.0
                   : static_cast<double>(direct) / static_cast<double>(selects);
  state.counters["full_decodes_per_query"] =
      total_queries == 0
          ? 0.0
          : static_cast<double>(after.project_full - before.project_full) /
                static_cast<double>(total_queries);
  state.counters["clients"] = clients;
}

BENCHMARK(BM_ServerScanHeavy)
    ->ArgsProduct({{1, 4, 16}, {0, 1}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Mixed read/write sessions against a *durable* server: each client
// interleaves INSERT/UPDATE/DELETE (write-ahead-logged, group-committed)
// with the SELECT mix. The interesting counters are qps under the
// engine's writer lock plus fsyncs_per_commit from the WAL — concurrent
// sessions' commits should batch well below one fsync each.

std::string DmlMixQuery(int client, int seq, std::atomic<int64_t>* next_id) {
  switch (seq % 5) {
    case 0:
    case 1: {
      const int64_t id = 1000000 + next_id->fetch_add(1);
      return "INSERT INTO metrics VALUES (" + std::to_string(id) + ", " +
             std::to_string((id * 131) % 10000) + ", 'fresh')";
    }
    case 2:
      return "UPDATE metrics SET value = " +
             std::to_string((client * 97 + seq) % 10000) +
             " WHERE id = " + std::to_string(client * 7 + seq);
    case 3:
      return "DELETE FROM metrics WHERE id = " +
             std::to_string(1000000 + client * 131 + seq);
    default:
      return QueryMix()[(client + seq) % QueryMix().size()];
  }
}

void BM_ServerDmlMix(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kQueriesPerClient = 8;

  const std::string dir =
      "bench_server_dml_db_" + std::to_string(clients);
  std::filesystem::remove_all(dir);
  server::ServerConfig config;
  config.max_sessions = clients + 4;
  config.admission.max_inflight = 8;
  config.admission.queue_timeout_ms = 60000;
  config.db_dir = dir;
  config.db.wal.checkpoint_log_bytes = 0;  // measure commits, not snapshots
  server::Server server(config);
  if (!server.OpenDurableStorage().ok()) {
    state.SkipWithError("durable open failed");
    return;
  }
  Populate(server.engine(), BenchRows());
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  std::vector<server::Client> conns;
  conns.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    auto c = server::Client::Connect("127.0.0.1", server.port());
    if (!c.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    conns.push_back(std::move(*c));
  }

  std::atomic<bool> failed{false};
  std::atomic<int64_t> next_id{0};
  int64_t total_queries = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        for (int q = 0; q < kQueriesPerClient; ++q) {
          if (!conns[t].Query(DmlMixQuery(t, q, &next_id)).ok()) {
            failed.store(true);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    total_queries += static_cast<int64_t>(clients) * kQueriesPerClient;
  }
  if (failed.load()) state.SkipWithError("query failed");

  const auto stats = server.stats();
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kIsRate);
  state.counters["fsyncs_per_commit"] =
      stats.wal.commits_synced == 0
          ? 0.0
          : static_cast<double>(stats.wal.fsyncs) /
                static_cast<double>(stats.wal.commits_synced);
  state.counters["clients"] = clients;
  server.Stop();
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_ServerDmlMix)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The C10K sweep (§ the epoll front-end): thousands of mostly-idle
// connections stay open while a handful of active sessions run a
// point-query mix. With the reactor an idle connection is an fd plus two
// buffers, so qps/p50/p99 should hold roughly flat as the idle herd
// grows. The herd lives in a forked child process because this
// benchmark holds *both* ends of every socket and the container caps
// RLIMIT_NOFILE at ~20K fds — one process per side keeps 10K+
// connections under the ceiling.

std::string PointQuery(int i) {
  return "SELECT value FROM metrics WHERE id = " +
         std::to_string((i * 7919) % 20000);
}

/// Best-effort bump of the fd ceiling, then the largest idle-herd size
/// the *parent* process (server side: one accepted fd per connection)
/// can carry. The child carries the client side under its own limit.
int ClampIdleConns(int requested) {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return requested;
  const rlim_t want = static_cast<rlim_t>(requested) + 512;
  if (rl.rlim_cur < want) {
    rlimit raised = rl;
    raised.rlim_cur = want;
    raised.rlim_max = std::max(rl.rlim_max, want);
    if (setrlimit(RLIMIT_NOFILE, &raised) == 0 ||
        (raised.rlim_max = rl.rlim_max,
         raised.rlim_cur = std::min(want, rl.rlim_max),
         setrlimit(RLIMIT_NOFILE, &raised) == 0)) {
      getrlimit(RLIMIT_NOFILE, &rl);
    }
  }
  if (rl.rlim_cur >= want) return requested;
  return static_cast<int>(rl.rlim_cur) - 512;
}

/// A forked process holding `count` open connections to `port`. The
/// child connects, never reads, and releases the herd when the parent
/// closes the control pipe.
struct IdleHerd {
  pid_t pid = -1;
  int release_fd = -1;  ///< parent closes to tear the herd down
  int opened = 0;       ///< connections actually established

  static IdleHerd Spawn(uint16_t port, int count) {
    IdleHerd herd;
    int report[2], release[2];
    if (pipe(report) != 0 || pipe(release) != 0) return herd;
    herd.pid = fork();
    if (herd.pid == 0) {
      // Child: open the herd, report the count, then park until the
      // parent hangs up.
      ::close(report[0]);
      ::close(release[1]);
      std::vector<int> fds;
      fds.reserve(count);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      for (int i = 0; i < count; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) break;
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
          ::close(fd);
          break;
        }
        fds.push_back(fd);
      }
      int32_t n = static_cast<int32_t>(fds.size());
      (void)!::write(report[1], &n, sizeof(n));
      ::close(report[1]);
      char sink;
      (void)!::read(release[0], &sink, 1);  // blocks until parent closes
      _exit(0);
    }
    // Parent.
    ::close(report[1]);
    ::close(release[0]);
    herd.release_fd = release[1];
    int32_t n = 0;
    if (::read(report[0], &n, sizeof(n)) == sizeof(n)) herd.opened = n;
    ::close(report[0]);
    return herd;
  }

  void Release() {
    if (release_fd >= 0) {
      ::close(release_fd);
      release_fd = -1;
    }
    if (pid > 0) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
  }
};

void BM_ServerC10K(benchmark::State& state) {
  const int idle_requested = static_cast<int>(state.range(0));
  const int idle = std::max(0, ClampIdleConns(idle_requested));
  constexpr int kActive = 8;
  constexpr int kQueriesPerClient = 16;

  server::ServerConfig config;
  config.max_sessions = idle + kActive + 8;
  config.admission.max_inflight = 8;
  config.admission.queue_timeout_ms = 60000;
  config.drain_force_millis = 2000;
  server::Server server(config);
  Populate(server.engine(), BenchRows());
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  IdleHerd herd;
  if (idle > 0) {
    herd = IdleHerd::Spawn(server.port(), idle);
    if (herd.opened < idle / 2) {
      herd.Release();
      state.SkipWithError("idle herd failed to open");
      return;
    }
    // Let the front-end finish accepting/handshaking the whole herd
    // (bounded, in case the accept backlog overflowed).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (server.stats().sessions_open < herd.opened &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::vector<server::Client> conns;
  conns.reserve(kActive);
  for (int i = 0; i < kActive; ++i) {
    auto c = server::Client::Connect("127.0.0.1", server.port());
    if (!c.ok()) {
      herd.Release();
      state.SkipWithError("connect failed");
      return;
    }
    conns.push_back(std::move(*c));
  }

  std::vector<double> latencies_ms;
  std::atomic<bool> failed{false};
  int64_t total_queries = 0;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(kActive);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kActive; ++t) {
      threads.emplace_back([&, t] {
        per_thread[t].reserve(kQueriesPerClient);
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const auto q0 = std::chrono::steady_clock::now();
          if (!conns[t].Query(PointQuery(t * kQueriesPerClient + q)).ok()) {
            failed.store(true);
          }
          per_thread[t].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - q0)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    total_queries += static_cast<int64_t>(kActive) * kQueriesPerClient;
    for (auto& v : per_thread) {
      latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
    }
  }
  herd.Release();
  if (failed.load()) state.SkipWithError("query failed");

  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = percentile(0.50);
  state.counters["p99_ms"] = percentile(0.99);
  state.counters["open_conns"] = herd.opened + kActive;
}

BENCHMARK(BM_ServerC10K)
    ->Arg(0)
    ->Arg(1000)
    ->Arg(2000)  // the CI smoke point
    ->Arg(4000)
    ->Arg(10000)
    ->Iterations(3)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Prepared-vs-raw on the same point-query mix: EXECUTE skips SQL
// parsing and SQL→MAL compilation per query (the plan cache hits), so
// the prepared flavour's qps win is exactly the front-end cost the
// plan cache removes.

void BM_ServerPreparedPointQueries(benchmark::State& state) {
  const bool prepared = state.range(0) != 0;
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 64;

  server::ServerConfig config;
  config.max_sessions = kClients + 4;
  config.admission.max_inflight = 8;
  config.admission.queue_timeout_ms = 60000;
  server::Server server(config);
  Populate(server.engine(), BenchRows());
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  std::vector<server::Client> conns;
  std::vector<server::PreparedHandle> handles(kClients);
  conns.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    auto c = server::Client::Connect("127.0.0.1", server.port());
    if (!c.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    if (prepared) {
      auto h = c->Prepare("SELECT value FROM metrics WHERE id = ?");
      if (!h.ok()) {
        state.SkipWithError("prepare failed");
        return;
      }
      handles[i] = *h;
    }
    conns.push_back(std::move(*c));
  }

  std::vector<double> latencies_ms;
  std::atomic<bool> failed{false};
  int64_t total_queries = 0;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(kClients);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        per_thread[t].reserve(kQueriesPerClient);
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const int64_t id = ((t * kQueriesPerClient + q) * 7919) % 20000;
          const auto q0 = std::chrono::steady_clock::now();
          const bool ok =
              prepared
                  ? conns[t]
                        .ExecutePrepared(handles[t], {Value::Int(id)})
                        .ok()
                  : conns[t]
                        .Query("SELECT value FROM metrics WHERE id = " +
                               std::to_string(id))
                        .ok();
          if (!ok) failed.store(true);
          per_thread[t].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - q0)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    total_queries += static_cast<int64_t>(kClients) * kQueriesPerClient;
    for (auto& v : per_thread) {
      latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
    }
  }
  if (failed.load()) state.SkipWithError("query failed");

  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = percentile(0.50);
  state.counters["p99_ms"] = percentile(0.99);
  state.counters["prepared"] = prepared ? 1 : 0;
  const auto stats = server.stats();
  state.counters["plan_cache_hits"] =
      static_cast<double>(stats.prepared.hits);
}

BENCHMARK(BM_ServerPreparedPointQueries)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(10)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
