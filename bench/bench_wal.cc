// Durability cost (src/wal/): what a commit pays for its fsync, and what
// group commit buys back under concurrency.
//
// BM_WalCommit sweeps concurrent committers 1..32 with group commit on
// and off. Every committer drives single-row INSERTs on its own session
// of one durable sql::Engine, so the measured path is the real one:
// parse, delta append, WAL append under the exclusive lock, fsync wait
// after it. (Execute() would put every committer on the engine's one
// default session, which runs its statements one at a time, so no two
// commits could ever share an fsync.)
// Counters: commits/s, fsyncs_per_commit (the group-commit headline —
// well below 1 with batching, ~1 without), p50/p99 commit latency.
//
// BM_WalRecovery replays a prebuilt log of single-row transactions into
// a fresh catalog and reports replay throughput in txns/s.
//
// Results land in BENCH_wal.json (see bench_main.cc).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "sql/engine.h"
#include "wal/db.h"
#include "wal/wal.h"

namespace {

using namespace mammoth;
namespace fs = std::filesystem;

std::string BenchDir(const std::string& tag) {
  return (fs::temp_directory_path() / ("mammoth_bench_wal_" + tag))
      .string();
}

void BM_WalCommit(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  const bool group = state.range(1) != 0;
  constexpr int kCommitsPerWriter = 40;

  const std::string dir =
      BenchDir(std::to_string(writers) + (group ? "_g" : "_n"));
  fs::remove_all(dir);
  wal::DbOptions options;
  options.wal.group_commit = group;
  options.wal.checkpoint_log_bytes = 0;  // measure commits, not snapshots
  sql::Engine engine;
  auto db = wal::OpenDatabase(dir, &engine, options);
  if (!db.ok() || !engine.Execute("CREATE TABLE t (v BIGINT)").ok()) {
    state.SkipWithError("durable engine setup failed");
    return;
  }

  std::vector<sql::SessionPtr> sessions;
  for (int t = 0; t < writers; ++t) sessions.push_back(engine.CreateSession());
  std::vector<double> latencies_ms;
  std::atomic<bool> failed{false};
  std::atomic<int64_t> next_value{0};
  int64_t total_commits = 0;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(writers);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < writers; ++t) {
      threads.emplace_back([&, t] {
        per_thread[t].reserve(kCommitsPerWriter);
        for (int j = 0; j < kCommitsPerWriter; ++j) {
          const int64_t v = next_value.fetch_add(1);
          const auto q0 = std::chrono::steady_clock::now();
          if (!engine
                   .ExecuteSession(sessions[t], "INSERT INTO t VALUES (" +
                                                    std::to_string(v) + ")")
                   .ok()) {
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
    total_commits += static_cast<int64_t>(writers) * kCommitsPerWriter;
    for (auto& v : per_thread) {
      latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
    }
  }
  if (failed.load()) state.SkipWithError("commit failed");

  const wal::WalStats stats = db->wal->stats();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(total_commits), benchmark::Counter::kIsRate);
  state.counters["fsyncs_per_commit"] =
      stats.commits_synced == 0
          ? 0.0
          : static_cast<double>(stats.fsyncs) /
                static_cast<double>(stats.commits_synced);
  state.counters["p50_ms"] = percentile(0.50);
  state.counters["p99_ms"] = percentile(0.99);
  state.counters["writers"] = writers;
  state.counters["group_commit"] = group ? 1 : 0;

  db->wal.reset();
  fs::remove_all(dir);
}

BENCHMARK(BM_WalCommit)
    ->ArgNames({"writers", "group"})
    ->ArgsProduct({{1, 2, 4, 8, 16, 32}, {1, 0}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_WalRecovery(benchmark::State& state) {
  const int ntxns = static_cast<int>(state.range(0));
  const std::string dir = BenchDir("recovery_" + std::to_string(ntxns));
  fs::remove_all(dir);
  {
    // Build the log once. sync_on_commit off: the build is setup, the
    // replay is the benchmark.
    wal::DbOptions options;
    options.wal.sync_on_commit = false;
    options.wal.checkpoint_log_bytes = 0;
    sql::Engine engine;
    auto db = wal::OpenDatabase(dir, &engine, options);
    if (!db.ok() ||
        !engine.Execute("CREATE TABLE t (v BIGINT, tag VARCHAR(16))")
             .ok()) {
      state.SkipWithError("log build failed");
      return;
    }
    for (int i = 0; i < ntxns; ++i) {
      if (!engine
               .Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                        ", 'tag_" + std::to_string(i % 100) + "')")
               .ok()) {
        state.SkipWithError("log build failed");
        return;
      }
    }
  }

  int64_t replayed = 0;
  for (auto _ : state) {
    Catalog catalog;
    auto info = wal::Recover(dir, &catalog);
    if (!info.ok()) {
      state.SkipWithError("recovery failed");
      return;
    }
    replayed += static_cast<int64_t>(info->txns_applied);
    benchmark::DoNotOptimize(catalog);
  }
  state.counters["txns_per_sec"] = benchmark::Counter(
      static_cast<double>(replayed), benchmark::Counter::kIsRate);
  state.counters["txns"] = ntxns;
  fs::remove_all(dir);
}

BENCHMARK(BM_WalRecovery)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
