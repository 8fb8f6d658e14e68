// E8 (§5, [44]): light-weight vectorized compression. Reported series:
//   - decompression speed in CPU cycles per value (claim: < 5 cycles/value
//     for PFOR-family codecs on compressible data);
//   - compression ratios per codec and data distribution;
//   - compressed-scan vs raw-scan under a simulated disk-bandwidth cap
//     (compression turns I/O-bound scans CPU-bound).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "compress/compressed_bat.h"
#include "compress/compressed_exec.h"
#include "compress/compressed_kernels.h"
#include "compress/dict_str.h"
#include "compress/pdict.h"
#include "compress/pfor.h"
#include "compress/rle.h"
#include "core/group.h"
#include "core/project.h"
#include "core/select.h"
#include "core/table.h"
#include "parallel/exec_context.h"
#include "parallel/task_pool.h"
#include "sql/engine.h"
#include "vector/pipeline.h"
#include "workloads.h"

namespace mammoth {
namespace {

constexpr size_t kValues = 4 << 20;

std::vector<int32_t> SmallRangeData() {
  BatPtr b = bench::UniformInt32(kValues, 1 << 10, 41);
  return std::vector<int32_t>(b->TailData<int32_t>(),
                              b->TailData<int32_t>() + kValues);
}

std::vector<int32_t> SortedData() {
  BatPtr b = bench::SortedInt32(kValues, 42);
  return std::vector<int32_t>(b->TailData<int32_t>(),
                              b->TailData<int32_t>() + kValues);
}

std::vector<int32_t> LowCardinalityData() {
  BatPtr b = bench::UniformInt32(kValues, 64, 43);
  return std::vector<int32_t>(b->TailData<int32_t>(),
                              b->TailData<int32_t>() + kValues);
}

/// The codec entry points are templates over the value width; the
/// function-pointer parameters pick their int32 instantiations.
void RunCodec(benchmark::State& state, const std::vector<int32_t>& data,
              Status (*encode)(const int32_t*, size_t, std::vector<uint8_t>*),
              Status (*decode)(const std::vector<uint8_t>&,
                               std::vector<int32_t>*)) {
  std::vector<uint8_t> buf;
  if (!encode(data.data(), data.size(), &buf).ok()) {
    state.SkipWithError("encode failed");
    return;
  }
  std::vector<int32_t> out;
  uint64_t cycles = 0;
  size_t rounds = 0;
  for (auto _ : state) {
    const uint64_t c0 = ReadCycleCounter();
    if (!decode(buf, &out).ok()) {
      state.SkipWithError("decode failed");
      return;
    }
    cycles += ReadCycleCounter() - c0;
    ++rounds;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
  state.counters["cycles_per_value"] =
      static_cast<double>(cycles) /
      (static_cast<double>(rounds) * static_cast<double>(data.size()));
  state.counters["ratio"] = static_cast<double>(data.size() * 4) /
                            static_cast<double>(buf.size());
}

void BM_PforDecodeSmallRange(benchmark::State& state) {
  RunCodec(state, SmallRangeData(), compress::PforEncode,
           compress::PforDecode);
}
BENCHMARK(BM_PforDecodeSmallRange)->Unit(benchmark::kMillisecond);

void BM_PforDeltaDecodeSorted(benchmark::State& state) {
  RunCodec(state, SortedData(), compress::PforDeltaEncode,
           compress::PforDeltaDecode);
}
BENCHMARK(BM_PforDeltaDecodeSorted)->Unit(benchmark::kMillisecond);

void BM_PdictDecodeLowCardinality(benchmark::State& state) {
  RunCodec(state, LowCardinalityData(), compress::PdictEncode,
           compress::PdictDecode);
}
BENCHMARK(BM_PdictDecodeLowCardinality)->Unit(benchmark::kMillisecond);

void BM_RleDecodeSorted(benchmark::State& state) {
  RunCodec(state, SortedData(), compress::RleEncode, compress::RleDecode);
}
BENCHMARK(BM_RleDecodeSorted)->Unit(benchmark::kMillisecond);

// Baseline: plain memcpy of the uncompressed column (the "decompression"
// cost of storing raw data).
void BM_MemcpyBaseline(benchmark::State& state) {
  const auto data = SmallRangeData();
  std::vector<int32_t> out(data.size());
  uint64_t cycles = 0;
  size_t rounds = 0;
  for (auto _ : state) {
    const uint64_t c0 = ReadCycleCounter();
    std::memcpy(out.data(), data.data(), data.size() * 4);
    cycles += ReadCycleCounter() - c0;
    ++rounds;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
  state.counters["cycles_per_value"] =
      static_cast<double>(cycles) /
      (static_cast<double>(rounds) * static_cast<double>(data.size()));
  state.counters["ratio"] = 1.0;
}
BENCHMARK(BM_MemcpyBaseline)->Unit(benchmark::kMillisecond);

// Simulated bandwidth-capped scan (X100's disk scenario): a scan may move
// at most `bw` bytes/sec from "disk". Compressed scans move fewer bytes and
// spend CPU decompressing; raw scans are I/O bound.
void ScanUnderBandwidth(benchmark::State& state, bool compressed) {
  const double bw = 500e6;  // 500 MB/s simulated sequential disk
  const auto data = SmallRangeData();
  std::vector<uint8_t> buf;
  benchmark::DoNotOptimize(
      compress::PforEncode(data.data(), data.size(), &buf).ok());
  std::vector<int32_t> out;
  for (auto _ : state) {
    const size_t io_bytes = compressed ? buf.size() : data.size() * 4;
    const double io_seconds = static_cast<double>(io_bytes) / bw;
    // Charge the simulated I/O time.
    WallTimer timer;
    int64_t sum = 0;
    if (compressed) {
      benchmark::DoNotOptimize(compress::PforDecode(buf, &out).ok());
      for (int32_t v : out) sum += v;
    } else {
      for (int32_t v : data) sum += v;
    }
    benchmark::DoNotOptimize(sum);
    const double cpu = timer.ElapsedSeconds();
    // Effective time: I/O and CPU overlap; the slower dominates.
    state.SetIterationTime(std::max(io_seconds, cpu));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
void BM_BandwidthCappedScanRaw(benchmark::State& state) {
  ScanUnderBandwidth(state, false);
}
void BM_BandwidthCappedScanPfor(benchmark::State& state) {
  ScanUnderBandwidth(state, true);
}
BENCHMARK(BM_BandwidthCappedScanRaw)->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BandwidthCappedScanPfor)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// In-memory CPU cost of the compressed *vectorized* scan (§5): the
// pipeline decompresses PFOR blocks into cache-resident vectors right
// before aggregating. Compare against the plain-BAT pipeline to see the
// decompression overhead a disk-based system would happily pay.
void CompressedPipelineScan(benchmark::State& state, bool compressed) {
  const auto data = SmallRangeData();
  BatPtr column = Bat::New(PhysType::kInt32);
  column->AppendRaw(data.data(), data.size());
  auto cb = compress::CompressedBat::Compress(column,
                                              compress::Codec::kPfor);
  if (!cb.ok()) {
    state.SkipWithError("compress failed");
    return;
  }
  for (auto _ : state) {
    vec::Pipeline p(
        compressed
            ? std::vector<vec::PipelineColumn>{&*cb}
            : std::vector<vec::PipelineColumn>{column},
        1024);
    benchmark::DoNotOptimize(
        p.SetAggregate(vec::Pipeline::kNoGroup, 1,
                       {{vec::AggFn::kSum, 0}})
            .ok());
    auto r = p.Run();
    benchmark::DoNotOptimize(r->aggregates.data());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
  state.counters["ratio"] = cb->Ratio();
}
void BM_VectorizedScanPlain(benchmark::State& state) {
  CompressedPipelineScan(state, false);
}
void BM_VectorizedScanPforBlocks(benchmark::State& state) {
  CompressedPipelineScan(state, true);
}
BENCHMARK(BM_VectorizedScanPlain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VectorizedScanPforBlocks)->Unit(benchmark::kMillisecond);

// ------------------------------------------- operate-on-compressed sweep --
// Direct kernels against decode-then-kernel over the *same* compressed
// image (§13): RLE aggregates fold value*run in O(runs), RLE/PDICT
// selects and dictionary string predicates evaluate in code space. The
// decode variants pay a fresh Decode() per iteration — exactly what the
// fallback path pays when a kernel reports unsupported. `bytes_touched`
// is the physical footprint each variant reads: codec bytes for direct,
// logical tail bytes for decode-then-kernel.

constexpr size_t kSweepRows = 4 << 20;

BatPtr RunHeavyColumn() {
  BatPtr b = Bat::New(PhysType::kInt32);
  b->Resize(kSweepRows);
  int32_t* p = b->MutableTailData<int32_t>();
  for (size_t i = 0; i < kSweepRows; ++i) {
    p[i] = static_cast<int32_t>((i / 1000) % 100);  // runs of 1000
  }
  return b;
}

BatPtr LowCardColumn() {
  BatPtr b = bench::UniformInt32(kSweepRows, 64, 47);
  return b;
}

void DirectAggr(benchmark::State& state, bool direct) {
  auto comp = compress::CompressedBat::Compress(RunHeavyColumn(),
                                                compress::Codec::kRle);
  if (!comp.ok()) {
    state.SkipWithError("compress failed");
    return;
  }
  for (auto _ : state) {
    if (direct) {
      auto r = compress::CompressedAggrSum(*comp);
      benchmark::DoNotOptimize(r->get());
    } else {
      auto plain = comp->Decode();  // the fallback's per-use decode
      auto r = algebra::AggrSum(*plain, nullptr, 1,
                                parallel::ExecContext::Serial());
      benchmark::DoNotOptimize(r->get());
    }
  }
  state.SetItemsProcessed(state.iterations() * kSweepRows);
  state.counters["bytes_touched"] = static_cast<double>(
      direct ? comp->CompressedBytes() : comp->LogicalBytes());
}
void BM_AggrSumRleDirect(benchmark::State& state) { DirectAggr(state, true); }
void BM_AggrSumRleDecodeThenKernel(benchmark::State& state) {
  DirectAggr(state, false);
}
BENCHMARK(BM_AggrSumRleDirect)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AggrSumRleDecodeThenKernel)->Unit(benchmark::kMillisecond);

void DirectSelect(benchmark::State& state, compress::Codec codec,
                  bool direct) {
  BatPtr column =
      codec == compress::Codec::kRle ? RunHeavyColumn() : LowCardColumn();
  auto comp = compress::CompressedBat::Compress(column, codec);
  if (!comp.ok()) {
    state.SkipWithError("compress failed");
    return;
  }
  const Value v = Value::Int(37);
  if (!compress::ThetaSelectableOnCompressed(*comp, v, CmpOp::kEq)) {
    state.SkipWithError("not eligible");
    return;
  }
  for (auto _ : state) {
    if (direct) {
      auto r = compress::CompressedThetaSelect(*comp, v, CmpOp::kEq, 0);
      benchmark::DoNotOptimize(r->get());
    } else {
      auto plain = comp->Decode();
      auto r = algebra::ThetaSelect(*plain, nullptr, v, CmpOp::kEq,
                                    parallel::ExecContext::Serial());
      benchmark::DoNotOptimize(r->get());
    }
  }
  state.SetItemsProcessed(state.iterations() * kSweepRows);
  state.counters["bytes_touched"] = static_cast<double>(
      direct ? comp->CompressedBytes() : comp->LogicalBytes());
}
void BM_SelectEqRleDirect(benchmark::State& state) {
  DirectSelect(state, compress::Codec::kRle, true);
}
void BM_SelectEqRleDecodeThenKernel(benchmark::State& state) {
  DirectSelect(state, compress::Codec::kRle, false);
}
void BM_SelectEqPdictDirect(benchmark::State& state) {
  DirectSelect(state, compress::Codec::kPdict, true);
}
void BM_SelectEqPdictDecodeThenKernel(benchmark::State& state) {
  DirectSelect(state, compress::Codec::kPdict, false);
}
BENCHMARK(BM_SelectEqRleDirect)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectEqRleDecodeThenKernel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectEqPdictDirect)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectEqPdictDecodeThenKernel)->Unit(benchmark::kMillisecond);

// Dictionary string predicates vs the stock string kernel on the plain
// column (already materialized — the dict variant wins on code width, not
// on skipped decode). The plain names draw 200 words (8-bit codes, the
// byte-aligned unpack); the *1000 variants draw 1000 (10-bit codes, the
// width of perfbench's facts.tag).
void DictStrSelect(benchmark::State& state, CmpOp op, const char* pattern,
                   bool dict_path, uint64_t words = 200) {
  constexpr size_t kStrRows = 1 << 20;
  BatPtr plain = Bat::NewString(nullptr);
  Rng rng(48);
  for (size_t i = 0; i < kStrRows; ++i) {
    plain->AppendString("tag_" + std::to_string(rng.Uniform(words)));
  }
  auto dict = compress::StrDict::Encode(plain);
  if (!dict.ok()) {
    state.SkipWithError("encode failed");
    return;
  }
  const Value v = Value::Str(pattern);
  for (auto _ : state) {
    if (dict_path) {
      auto r = compress::DictStrSelectRange(*dict, v, op, 0, kStrRows, 0);
      benchmark::DoNotOptimize(r->get());
    } else {
      auto r = algebra::ThetaSelect(plain, nullptr, v, op,
                                    parallel::ExecContext::Serial());
      benchmark::DoNotOptimize(r->get());
    }
  }
  state.SetItemsProcessed(state.iterations() * kStrRows);
  state.counters["bytes_touched"] = static_cast<double>(
      dict_path ? dict->CompressedBytes() : dict->LogicalBytes());
}
void BM_StrSelectEqDict(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kEq, "tag_42", true);
}
void BM_StrSelectEqPlainKernel(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kEq, "tag_42", false);
}
void BM_StrSelectLikePrefixDict(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kLike, "tag_1%", true);
}
void BM_StrSelectLikePrefixPlainKernel(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kLike, "tag_1%", false);
}
// `<>` fills the LUT and clears the probed code; LIKE '%lit%' evaluates
// the glob once per distinct word. With `=`/ordered ops (one probe or
// bound) and LIKE 'lit%' (a prefix range) above, every way of building the
// LUT has a number.
void BM_StrSelectNeDict(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kNe, "tag_42", true);
}
void BM_StrSelectNePlainKernel(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kNe, "tag_42", false);
}
void BM_StrSelectLikeInfixDict(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kLike, "%42%", true);
}
void BM_StrSelectLikeInfixPlainKernel(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kLike, "%42%", false);
}
BENCHMARK(BM_StrSelectEqDict)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectEqPlainKernel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectLikePrefixDict)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectLikePrefixPlainKernel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectNeDict)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectNePlainKernel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectLikeInfixDict)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectLikeInfixPlainKernel)->Unit(benchmark::kMillisecond);

void BM_StrSelectEqDict1000(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kEq, "tag_42", true, 1000);
}
void BM_StrSelectEqPlainKernel1000(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kEq, "tag_42", false, 1000);
}
void BM_StrSelectLikePrefixDict1000(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kLike, "tag_1%", true, 1000);
}
void BM_StrSelectNeDict1000(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kNe, "tag_42", true, 1000);
}
void BM_StrSelectLikeInfixDict1000(benchmark::State& state) {
  DictStrSelect(state, CmpOp::kLike, "%42%", true, 1000);
}
BENCHMARK(BM_StrSelectEqDict1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectEqPlainKernel1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectLikePrefixDict1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectNeDict1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrSelectLikeInfixDict1000)->Unit(benchmark::kMillisecond);

// Projection of a scattered candidate list (sorted, ~10% of 1Mi rows, the
// shape of a LIKE-prefix select result) over each codec's home data: the
// gather reads only the candidates' rows from the codec stream. The Plain
// twin gathers from the decoded column, the cost floor of a column kept
// decoded in memory.
constexpr size_t kProjectRows = size_t{1} << 20;

BatPtr ScatteredCandidates() {
  BatPtr oids = Bat::New(PhysType::kOid);
  Rng rng(49);
  for (size_t i = 0; i < kProjectRows; ++i) {
    if (rng.Uniform(10) == 0) oids->Append<Oid>(i);
  }
  oids->mutable_props().sorted = true;
  oids->mutable_props().key = true;
  return oids;
}

BatPtr ProjectColumn(compress::Codec codec) {
  switch (codec) {
    case compress::Codec::kPfor: {  // uniform over every int32: facts.rnd
      BatPtr b = Bat::New(PhysType::kInt32);
      b->Resize(kProjectRows);
      Rng rng(50);
      int32_t* p = b->MutableTailData<int32_t>();
      for (size_t i = 0; i < kProjectRows; ++i) {
        p[i] = static_cast<int32_t>(rng.Next());
      }
      return b;
    }
    case compress::Codec::kPforDelta:
      return bench::SortedInt32(kProjectRows, 51);
    case compress::Codec::kPdict:
      return bench::UniformInt32(kProjectRows, 256, 52);
    case compress::Codec::kRle:
      break;
  }
  BatPtr b = Bat::New(PhysType::kInt32);
  b->Resize(kProjectRows);
  int32_t* p = b->MutableTailData<int32_t>();
  for (size_t i = 0; i < kProjectRows; ++i) {
    p[i] = static_cast<int32_t>((i / 1000) % 100);
  }
  return b;
}

void ScatteredProject(benchmark::State& state, compress::Codec codec,
                      bool plain) {
  BatPtr column = ProjectColumn(codec);
  auto comp_r = compress::CompressedBat::Compress(column, codec);
  if (!comp_r.ok()) {
    state.SkipWithError("compress failed");
    return;
  }
  auto comp =
      std::make_shared<const compress::CompressedBat>(*std::move(comp_r));
  const BatPtr oids = ScatteredCandidates();
  for (auto _ : state) {
    auto r = plain ? algebra::Project(oids, column,
                                      parallel::ExecContext::Serial())
                   : compress::CompressedProject(oids, comp);
    benchmark::DoNotOptimize(r->get());
  }
  state.SetItemsProcessed(state.iterations() * oids->Count());
}
void BM_ProjectScatteredPfor(benchmark::State& state) {
  ScatteredProject(state, compress::Codec::kPfor, false);
}
void BM_ProjectScatteredPforDelta(benchmark::State& state) {
  ScatteredProject(state, compress::Codec::kPforDelta, false);
}
void BM_ProjectScatteredPdict(benchmark::State& state) {
  ScatteredProject(state, compress::Codec::kPdict, false);
}
void BM_ProjectScatteredRle(benchmark::State& state) {
  ScatteredProject(state, compress::Codec::kRle, false);
}
void BM_ProjectScatteredPlain(benchmark::State& state) {
  ScatteredProject(state, compress::Codec::kPfor, true);
}
BENCHMARK(BM_ProjectScatteredPfor)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProjectScatteredPforDelta)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProjectScatteredPdict)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProjectScatteredRle)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProjectScatteredPlain)->Unit(benchmark::kMillisecond);

// The same scattered list over a 1000-word string column (perfbench's
// facts.tag width): the dictionary gathers 10-bit codes and maps each to
// its heap offset, against the plain kernel gathering offsets from the
// 8-byte-per-row tail a dictionary column no longer keeps.
void StrScatteredProject(benchmark::State& state, bool dict_path) {
  BatPtr plain = Bat::NewString(nullptr);
  Rng rng(53);
  for (size_t i = 0; i < kProjectRows; ++i) {
    plain->AppendString("tag_" + std::to_string(rng.Uniform(1000)));
  }
  auto dict_r = compress::StrDict::Encode(plain);
  if (!dict_r.ok()) {
    state.SkipWithError("encode failed");
    return;
  }
  auto dict = std::make_shared<const compress::StrDict>(*std::move(dict_r));
  const BatPtr oids = ScatteredCandidates();
  for (auto _ : state) {
    auto r = dict_path ? compress::DictProject(oids, dict)
                       : algebra::Project(oids, plain,
                                          parallel::ExecContext::Serial());
    benchmark::DoNotOptimize(r->get());
  }
  state.SetItemsProcessed(state.iterations() * oids->Count());
}
void BM_StrProjectScatteredDict1000(benchmark::State& state) {
  StrScatteredProject(state, true);
}
void BM_StrProjectScatteredPlainKernel1000(benchmark::State& state) {
  StrScatteredProject(state, false);
}
BENCHMARK(BM_StrProjectScatteredDict1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StrProjectScatteredPlainKernel1000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------- end-to-end --
// Compression as an execution path, measured through the whole engine:
// 8 closed-loop threads, each on its own session, run 4 queries each (a
// 32-scan mix over four columns with different codec affinities) against
// one sql::Engine — once over plain storage, once after ALTER TABLE ...
// COMPRESS. Counters come from compress::KernelStats and report which
// route the work took: direct_select_ratio (selects answered on the
// compressed image: code space or binary search, against chunk-wise
// decodes), decoded_bytes_per_query (bytes the bounded projection
// decodes produced) and full_decodes_per_query (whole-column decodes);
// all read 0 over plain storage. MAMMOTH_BENCH_ROWS overrides the table
// size (default 32 morsels of 64Ki rows).

constexpr size_t kMixChunkRows = size_t{1} << 16;

size_t MixRows() {
  const char* env = std::getenv("MAMMOTH_BENCH_ROWS");
  return env != nullptr ? std::strtoull(env, nullptr, 10)
                        : 32 * kMixChunkRows + 777;
}

// Fresh per variant: ALTER TABLE COMPRESS rewrites storage in place, so
// the raw and compressed runs must not share a TablePtr.
TablePtr MixTable() {
  const size_t nrows = MixRows();
  BatPtr id = Bat::New(PhysType::kInt32);
  BatPtr val = Bat::New(PhysType::kInt32);
  BatPtr tag = Bat::New(PhysType::kInt32);
  BatPtr big = Bat::New(PhysType::kInt64);
  id->Resize(nrows);
  val->Resize(nrows);
  tag->Resize(nrows);
  big->Resize(nrows);
  int32_t* idp = id->MutableTailData<int32_t>();
  int32_t* vp = val->MutableTailData<int32_t>();
  int32_t* tp = tag->MutableTailData<int32_t>();
  int64_t* bp = big->MutableTailData<int64_t>();
  Rng rng(20260807);
  for (size_t i = 0; i < nrows; ++i) {
    idp[i] = static_cast<int32_t>(i);                     // sorted: PFOR-DELTA
    vp[i] = static_cast<int32_t>(rng.Uniform(10000));     // small range: PFOR
    tp[i] = static_cast<int32_t>(i / 1000);               // runs: RLE
    bp[i] = (int64_t{1} << 34) +
            static_cast<int64_t>(rng.Uniform(512));       // wide, clustered
  }
  auto t = Table::FromColumns("events",
                              {{"id", PhysType::kInt32},
                               {"val", PhysType::kInt32},
                               {"tag", PhysType::kInt32},
                               {"big", PhysType::kInt64}},
                              {id, val, tag, big});
  if (!t.ok()) std::abort();
  return *t;
}

// Overlapping aggregates over all four columns; single-row results keep
// the scan (not the wire) as the measured cost.
std::string MixQuery(int i, size_t nrows) {
  switch (i % 4) {
    case 0: {
      const int lo = 250 * (i % 3);
      return "SELECT COUNT(*), SUM(val) FROM events WHERE val >= " +
             std::to_string(lo) + " AND val <= " + std::to_string(lo + 8500);
    }
    case 1:
      return "SELECT COUNT(*), SUM(tag) FROM events WHERE tag >= 0 AND "
             "tag <= " +
             std::to_string(nrows / 1000);
    case 2:
      return "SELECT COUNT(*), SUM(id) FROM events WHERE id >= 0 AND id <= " +
             std::to_string(nrows);
    case 3:
      return "SELECT COUNT(*) FROM events WHERE big >= 17179869184 AND "
             "big <= 17179869600";
  }
  return "";
}

void EndToEndScanMix(benchmark::State& state, bool compressed) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4;  // 8 x 4 = the 32-scan mix

  sql::Engine engine;
  if (!engine.catalog()->Register(MixTable()).ok()) {
    state.SkipWithError("register failed");
    return;
  }
  if (compressed &&
      !engine.Execute("ALTER TABLE events COMPRESS").ok()) {
    state.SkipWithError("compress failed");
    return;
  }
  parallel::TaskPool pool(parallel::DefaultThreadCount());
  parallel::ExecContext ctx(&pool);
  const size_t nrows = MixRows();
  std::vector<sql::SessionPtr> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.push_back(engine.CreateSession());

  std::atomic<bool> failed{false};
  int64_t total_queries = 0;
  const compress::KernelStats before = compress::GetKernelStats();
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int q = 0; q < kQueriesPerThread; ++q) {
          if (!engine.ExecuteSession(sessions[t], MixQuery(t + q, nrows), ctx)
                   .ok()) {
            failed.store(true);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    total_queries += kThreads * kQueriesPerThread;
  }
  const compress::KernelStats after = compress::GetKernelStats();
  if (failed.load()) state.SkipWithError("query failed");

  const double queries = static_cast<double>(total_queries);
  const auto per_query = [&](uint64_t n) {
    return total_queries == 0 ? 0.0 : static_cast<double>(n) / queries;
  };
  const uint64_t direct = after.selects_direct - before.selects_direct;
  const uint64_t selects =
      direct + after.selects_fallback - before.selects_fallback;
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kIsRate);
  state.counters["direct_select_ratio"] =
      selects == 0 ? 0.0
                   : static_cast<double>(direct) / static_cast<double>(selects);
  state.counters["decoded_bytes_per_query"] = per_query(
      after.project_bounded_bytes - before.project_bounded_bytes);
  state.counters["full_decodes_per_query"] =
      per_query(after.project_full - before.project_full);
  const auto cs = engine.compression_stats();
  state.counters["storage_ratio"] =
      cs.compressed_bytes == 0
          ? 1.0
          : static_cast<double>(cs.logical_bytes) /
                static_cast<double>(cs.compressed_bytes);
}

void BM_EndToEndScanMixRaw(benchmark::State& state) {
  EndToEndScanMix(state, false);
}
void BM_EndToEndScanMixCompressed(benchmark::State& state) {
  EndToEndScanMix(state, true);
}
BENCHMARK(BM_EndToEndScanMixRaw)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndScanMixCompressed)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mammoth
