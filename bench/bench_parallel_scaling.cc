// Morsel-driven parallelism (§3, execution layer): sweep the worker count
// over the parallel BAT-algebra kernels at 16M rows. Each operator splits a
// dense OID range into cache-sized morsels claimed from an atomic cursor;
// the output is bit-identical to the serial kernel, so the only variable is
// wall clock. Counters record the thread count so BENCH_parallel_scaling.json
// can be reduced to a speedup-vs-threads curve per operator.
//
// Note: speedup is bounded by the cores the container actually has; on a
// single-core host every thread count collapses to ~1x.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/group.h"
#include "core/project.h"
#include "core/select.h"
#include "join/partitioned_hash_join.h"
#include "parallel/exec_context.h"
#include "parallel/task_pool.h"
#include "workloads.h"

namespace mammoth {
namespace {

constexpr size_t kRows = size_t{16} << 20;

// Workloads are built once and shared across all thread counts so the sweep
// measures the kernels, not the generators.
const BatPtr& ScanColumn() {
  static BatPtr b = bench::UniformInt32(kRows, 1u << 20, 11);
  return b;
}

const BatPtr& ValueColumn() {
  static BatPtr b = bench::UniformInt64(kRows, uint64_t{1} << 40, 12);
  return b;
}

const BatPtr& OidColumn() {
  static BatPtr b = [] {
    Rng rng(13);
    BatPtr o = Bat::New(PhysType::kOid);
    o->Resize(kRows);
    Oid* v = o->MutableTailData<Oid>();
    for (size_t i = 0; i < kRows; ++i) v[i] = rng.Uniform(kRows);
    return o;
  }();
  return b;
}

const BatPtr& GroupColumn() {
  static BatPtr b = bench::UniformInt32(kRows, 1024, 14);
  return b;
}

// The same 1024 distinct values spread over 2^24: a key span past the
// direct-indexed grouping's 64Ki slots, so Group() hashes, in parallel.
const BatPtr& WideGroupColumn() {
  static BatPtr b = [] {
    BatPtr w = bench::UniformInt32(kRows, 1024, 14);
    int32_t* v = w->MutableTailData<int32_t>();
    for (size_t i = 0; i < kRows; ++i) v[i] *= (1 << 24) / 1024;
    return w;
  }();
  return b;
}

const bench::JoinPair& JoinInputs() {
  static bench::JoinPair p = bench::FkJoinPair(kRows, kRows, 15);
  return p;
}

class ScopedCtx {
 public:
  explicit ScopedCtx(int threads) : pool_(threads), ctx_(&pool_) {}
  const parallel::ExecContext& get() const { return ctx_; }

 private:
  parallel::TaskPool pool_;
  parallel::ExecContext ctx_;
};

void BM_ParallelRangeSelect(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const BatPtr& col = ScanColumn();
  ScopedCtx ctx(threads);
  for (auto _ : state) {
    auto r = algebra::RangeSelect(col, nullptr, Value::Int(1 << 18),
                                  Value::Int(3 << 18), true, true, false,
                                  ctx.get());
    benchmark::DoNotOptimize(r->get());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["threads"] = threads;
}

void BM_ParallelFetchJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const BatPtr& oids = OidColumn();
  const BatPtr& values = ValueColumn();
  ScopedCtx ctx(threads);
  for (auto _ : state) {
    auto r = algebra::FetchJoin(oids, values, ctx.get());
    benchmark::DoNotOptimize(r->get());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["threads"] = threads;
}

void BM_ParallelGroupAggr(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const BatPtr& col = GroupColumn();
  const BatPtr& values = ValueColumn();
  ScopedCtx ctx(threads);
  for (auto _ : state) {
    auto g = algebra::Group(col, nullptr, 0, ctx.get());
    auto s = algebra::AggrSum(values, g->groups, g->ngroups, ctx.get());
    benchmark::DoNotOptimize(s->get());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["threads"] = threads;
}

void BM_ParallelGroupAggrWide(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const BatPtr& col = WideGroupColumn();
  const BatPtr& values = ValueColumn();
  ScopedCtx ctx(threads);
  for (auto _ : state) {
    auto g = algebra::Group(col, nullptr, 0, ctx.get());
    auto s = algebra::AggrSum(values, g->groups, g->ngroups, ctx.get());
    benchmark::DoNotOptimize(s->get());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["threads"] = threads;
}

void BM_ParallelPartitionedJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bench::JoinPair& pair = JoinInputs();
  ScopedCtx ctx(threads);
  radix::PartitionedJoinOptions opt;
  opt.ctx = &ctx.get();
  radix::PartitionedJoinStats stats;
  for (auto _ : state) {
    auto r = radix::PartitionedHashJoin(pair.left, pair.right, opt, &stats);
    benchmark::DoNotOptimize(r->left.get());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["threads"] = threads;
  state.counters["radix_bits"] = stats.bits;
}

#define THREAD_SWEEP ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1) \
    ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_ParallelRangeSelect) THREAD_SWEEP;
BENCHMARK(BM_ParallelFetchJoin) THREAD_SWEEP;
BENCHMARK(BM_ParallelGroupAggr) THREAD_SWEEP;
BENCHMARK(BM_ParallelGroupAggrWide) THREAD_SWEEP;
BENCHMARK(BM_ParallelPartitionedJoin) THREAD_SWEEP;

}  // namespace
}  // namespace mammoth
