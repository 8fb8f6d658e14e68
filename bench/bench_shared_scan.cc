// E15 (§5): shared-scan execution, measured for real (not simulated —
// compare bench_cooperative_scan.cc, which drives the policy oracle).
// N closed-loop threads issue overlapping full-column range scans
// through one sql::Engine with a SharedScanScheduler attached; each
// in-flight pass is shared by everyone scanning the table, so the
// physical chunk loads per query should fall towards 1/N as concurrency
// grows. The N=1 point doubles as the independent baseline: a lone scan
// runs the direct kernel path and pays the full pass itself.
//
// Counters: loads_per_query (physical chunk loads, direct + driven,
// divided by queries), shared_fraction (scans that attached to another
// query's pass), qps, p50/p99 per-query latency.
//
// MAMMOTH_BENCH_ROWS overrides the table size (default 32 morsels of
// 64Ki rows, ~2.1M rows).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/table.h"
#include "parallel/exec_context.h"
#include "parallel/task_pool.h"
#include "scan/shared_scan.h"
#include "sql/engine.h"

namespace {

using namespace mammoth;

constexpr size_t kChunkRows = size_t{1} << 16;

size_t BenchRows() {
  const char* env = std::getenv("MAMMOTH_BENCH_ROWS");
  return env != nullptr ? std::strtoull(env, nullptr, 10)
                        : 32 * kChunkRows + 777;
}

// One immutable table shared by every benchmark arg (read-only: no DML
// runs here, so reusing the TablePtr across engines is safe).
TablePtr ScanTable() {
  static TablePtr table = [] {
    const size_t nrows = BenchRows();
    BatPtr id = Bat::New(PhysType::kInt64);
    id->Resize(nrows);
    int64_t* idp = id->MutableTailData<int64_t>();
    BatPtr val = Bat::New(PhysType::kInt64);
    val->Resize(nrows);
    int64_t* valp = val->MutableTailData<int64_t>();
    Rng rng(20260807);
    for (size_t i = 0; i < nrows; ++i) {
      idp[i] = static_cast<int64_t>(i);
      valp[i] = static_cast<int64_t>(rng.Next() % 10000);
    }
    auto t = Table::FromColumns(
        "metrics",
        {{"id", PhysType::kInt64}, {"val", PhysType::kInt64}},
        {id, val});
    if (!t.ok()) std::abort();
    return *t;
  }();
  return table;
}

// Heavily overlapping ranges over val's [0, 10000) domain; aggregates
// keep the result a single row so the scan dominates the measurement.
std::string ScanQuery(int i) {
  const int lo = 250 * (i % 4);
  const int hi = lo + 8500;
  return "SELECT COUNT(*), SUM(val) FROM metrics WHERE val >= " +
         std::to_string(lo) + " AND val <= " + std::to_string(hi);
}

void BM_SharedScanConcurrency(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kQueriesPerThread = 4;

  sql::Engine engine;
  if (!engine.catalog()->Register(ScanTable()).ok()) {
    state.SkipWithError("register failed");
    return;
  }
  scan::SharedScanConfig cfg;
  cfg.min_share_rows = kChunkRows;
  scan::SharedScanScheduler sched(cfg);
  engine.AttachSharedScans(&sched);
  parallel::TaskPool pool(parallel::DefaultThreadCount());
  parallel::ExecContext ctx(&pool);

  std::vector<double> latencies_ms;
  std::atomic<bool> failed{false};
  int64_t total_queries = 0;
  uint64_t loads = 0;      // physical: driven loads + direct passes
  uint64_t attached = 0;
  uint64_t direct = 0;
  for (auto _ : state) {
    const scan::SharedScanStats before = sched.stats();
    std::vector<std::vector<double>> per_thread(n);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        per_thread[t].reserve(kQueriesPerThread);
        for (int q = 0; q < kQueriesPerThread; ++q) {
          const auto q0 = std::chrono::steady_clock::now();
          if (!engine.Execute(ScanQuery(t + q), ctx).ok()) {
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
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    state.SetIterationTime(seconds);
    total_queries += static_cast<int64_t>(n) * kQueriesPerThread;
    const scan::SharedScanStats after = sched.stats();
    loads += (after.chunks_loaded - before.chunks_loaded) +
             (after.chunks_direct - before.chunks_direct);
    attached += after.scans_attached - before.scans_attached;
    direct += after.scans_direct - before.scans_direct;
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
  state.counters["loads_per_query"] =
      total_queries == 0
          ? 0.0
          : static_cast<double>(loads) / static_cast<double>(total_queries);
  state.counters["shared_fraction"] =
      attached + direct == 0
          ? 0.0
          : static_cast<double>(attached) /
                static_cast<double>(attached + direct);
  state.counters["p50_ms"] = percentile(0.50);
  state.counters["p99_ms"] = percentile(0.99);
  state.counters["concurrency"] = n;
}

BENCHMARK(BM_SharedScanConcurrency)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
