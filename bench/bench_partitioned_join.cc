// E4 (§4.1-4.2): simple bucket-chained hash join vs radix-partitioned hash
// join. Once the inner side outgrows the caches every probe of the simple
// join misses; partitioning first makes each partition cache-resident.
// Claim: "easily an order of magnitude" improvement on large inputs.
//
// Series: join of |L| = |R| = N for N in {256K .. 8M}, both algorithms,
// plus the partitioned join at the model-suggested radix bits.
//
// Dense-key series: a star-schema FK probe of |L| in {32K, 1M} rows into a
// 256-row dimension whose key is exactly 0..255. Join() fetches the
// matching row positionally (row v − lo, like §3's void column); HashJoin
// is the bucket-chained probe that Join() ran for this shape before.

#include <benchmark/benchmark.h>

#include "core/join.h"
#include "join/partitioned_hash_join.h"
#include "workloads.h"

namespace mammoth {
namespace {

void BM_SimpleHashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto pair = bench::FkJoinPair(n, n, 7);
  for (auto _ : state) {
    auto r = algebra::HashJoin(pair.left, pair.right);
    benchmark::DoNotOptimize(r->left.get());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimpleHashJoin)
    ->Arg(256 << 10)->Arg(1 << 20)->Arg(4 << 20)->Arg(8 << 20)
    ->Arg(32 << 20)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionedHashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto pair = bench::FkJoinPair(n, n, 7);
  radix::PartitionedJoinOptions opt;  // bits auto-tuned from cache size
  radix::PartitionedJoinStats stats;
  for (auto _ : state) {
    auto r = radix::PartitionedHashJoin(pair.left, pair.right, opt, &stats);
    benchmark::DoNotOptimize(r->left.get());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["radix_bits"] = stats.bits;
  state.counters["passes"] = stats.passes;
}
BENCHMARK(BM_PartitionedHashJoin)
    ->Arg(256 << 10)->Arg(1 << 20)->Arg(4 << 20)->Arg(8 << 20)
    ->Arg(32 << 20)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// FK values uniform over the dimension's 256 keys, and the dense key.
bench::JoinPair DenseKeyPair(size_t n) {
  bench::JoinPair p;
  p.left = bench::UniformInt32(n, 256, 21);
  p.right = Bat::New(PhysType::kInt32);
  for (int32_t i = 0; i < 256; ++i) p.right->Append<int32_t>(i);
  return p;
}

void BM_DenseKeyFetchJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bench::JoinPair pair = DenseKeyPair(n);
  for (auto _ : state) {
    auto r = algebra::Join(pair.left, pair.right);
    benchmark::DoNotOptimize(r->left.get());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DenseKeyFetchJoin)
    ->Arg(32 << 10)->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

void BM_DenseKeyHashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bench::JoinPair pair = DenseKeyPair(n);
  for (auto _ : state) {
    auto r = algebra::HashJoin(pair.left, pair.right);
    benchmark::DoNotOptimize(r->left.get());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DenseKeyHashJoin)
    ->Arg(32 << 10)->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

// Sensitivity: fixed 4M join across explicit radix-bit settings (the
// U-shape: too few bits -> cache thrashing in the join; too many -> the
// clustering itself thrashes).
void BM_PartitionedJoinBitsSweep(benchmark::State& state) {
  const size_t n = 4 << 20;
  auto pair = bench::FkJoinPair(n, n, 7);
  radix::PartitionedJoinOptions opt;
  opt.bits = static_cast<int>(state.range(0));
  opt.passes = 2;
  for (auto _ : state) {
    auto r = radix::PartitionedHashJoin(pair.left, pair.right, opt);
    benchmark::DoNotOptimize(r->left.get());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PartitionedJoinBitsSweep)
    ->DenseRange(2, 16, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mammoth
