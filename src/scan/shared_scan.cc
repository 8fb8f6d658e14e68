#include "scan/shared_scan.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/logging.h"
#include "compress/compressed_kernels.h"
#include "core/select.h"
#include "parallel/task_pool.h"

namespace mammoth::scan {

namespace {

/// Whether the predicate can run over the source's compressed
/// representation directly (code-space / run-space), bit-identical to
/// decode-then-kernel.
bool CodeSpacePredicate(const ColumnSource& source, const ScanPredicate& pred) {
  if (source.comp == nullptr) return false;
  return pred.kind == ScanPredicate::Kind::kTheta
             ? compress::ThetaSelectableOnCompressed(*source.comp, pred.v,
                                                     pred.op)
             : compress::RangeSelectableOnCompressed(*source.comp, pred.lo,
                                                     pred.hi);
}

/// Evaluates a code-space-rewritable predicate over rows [begin, end) of
/// the compressed image directly.
Result<BatPtr> EvalCodeSpace(const ColumnSource& source,
                             const ScanPredicate& pred, size_t begin,
                             size_t end, Oid col_hseq) {
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return compress::CompressedThetaSelectRange(*source.comp, pred.v, pred.op,
                                                begin, end, col_hseq);
  }
  return compress::CompressedRangeSelectRange(*source.comp, pred.lo, pred.hi,
                                              true, true, pred.anti, begin,
                                              end, col_hseq);
}

/// Whether a compressed source answers the predicate by binary search: a
/// sorted column, under every numeric predicate but LIKE.
bool SortedPredicate(const ColumnSource& source, const ScanPredicate& pred) {
  if (source.comp == nullptr || !source.comp->props().sorted) return false;
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return pred.v.is_numeric() && pred.op != CmpOp::kLike;
  }
  return (pred.lo.is_nil() || pred.lo.is_numeric()) &&
         (pred.hi.is_nil() || pred.hi.is_numeric());
}

/// The binary-search select over a sorted compressed source. A theta
/// predicate maps onto the range it selects in a sorted column; `<>` is
/// the rows outside the `=` range.
Result<BatPtr> EvalSorted(const ColumnSource& source,
                          const ScanPredicate& pred) {
  const compress::CompressedBat& comp = *source.comp;
  if (pred.kind == ScanPredicate::Kind::kRange) {
    return compress::CompressedSortedSelect(comp, pred.lo, pred.hi, true, true,
                                            pred.anti, source.hseqbase);
  }
  const Value none;
  switch (pred.op) {
    case CmpOp::kLt:
    case CmpOp::kLe:
      return compress::CompressedSortedSelect(comp, none, pred.v, true,
                                              pred.op == CmpOp::kLe, false,
                                              source.hseqbase);
    case CmpOp::kGe:
    case CmpOp::kGt:
      return compress::CompressedSortedSelect(comp, pred.v, none,
                                              pred.op == CmpOp::kGe, true,
                                              false, source.hseqbase);
    default:  // kEq, kNe
      return compress::CompressedSortedSelect(comp, pred.v, pred.v, true, true,
                                              pred.op == CmpOp::kNe,
                                              source.hseqbase);
  }
}

/// A zero-copy view BAT over a chunk's delivered bytes (rows [begin, end)
/// of the column), head-rebased so the kernels emit the same OIDs
/// (`col_hseq + position`) a full-column scan would. The kernels append
/// qualifying OIDs in position order, so concatenating chunk results by
/// chunk index reproduces the full kernel output exactly. The view
/// carries default properties, matching the merged-image columns the
/// routed scans read (never sorted/dense), so kernel fast-path decisions
/// agree with the plain path.
BatPtr ChunkView(const ChunkBuffer& buf, Oid col_hseq, size_t begin,
                 size_t end) {
  BatPtr view = Bat::New(buf.type);
  view->tail().AdoptExternal(const_cast<void*>(buf.data), end - begin);
  view->set_hseqbase(col_hseq + begin);
  return view;
}

/// Whether any value in [block_min, block_max] can satisfy the predicate,
/// with the predicate operand converted exactly as the kernels convert it
/// (Value::As<T> on the column type), so pruning never disagrees with the
/// scan.
bool BlockMaySatisfy(const ScanPredicate& pred, int64_t bmin, int64_t bmax,
                     PhysType type) {
  const auto as_col = [&](const Value& v) -> int64_t {
    return type == PhysType::kInt32
               ? static_cast<int64_t>(v.As<int32_t>())
               : v.As<int64_t>();
  };
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    const int64_t v = as_col(pred.v);
    switch (pred.op) {
      case CmpOp::kEq:
        return v >= bmin && v <= bmax;
      case CmpOp::kNe:
        return !(bmin == bmax && bmin == v);
      case CmpOp::kLt:
        return bmin < v;
      case CmpOp::kLe:
        return bmin <= v;
      case CmpOp::kGe:
        return bmax >= v;
      case CmpOp::kGt:
        return bmax > v;
      case CmpOp::kLike:
        return true;  // string-only; never reaches numeric pruning
    }
    return true;
  }
  const bool has_lo = !pred.lo.is_nil();
  const bool has_hi = !pred.hi.is_nil();
  const int64_t lo = has_lo ? as_col(pred.lo) : 0;
  const int64_t hi = has_hi ? as_col(pred.hi) : 0;
  if (pred.anti) {
    // Keep x outside [lo, hi]: the block is prunable only when it lies
    // entirely inside the rejected range.
    return !(has_lo && has_hi && lo <= bmin && bmax <= hi) ||
           (has_lo && lo > bmin) || (has_hi && hi < bmax);
  }
  if (has_lo && bmax < lo) return false;
  if (has_hi && bmin > hi) return false;
  return true;
}

/// Concatenates per-chunk select results in chunk order (null parts are
/// skipped chunks) into one stamped OID list.
BatPtr ConcatParts(const std::vector<BatPtr>& parts) {
  size_t total = 0;
  for (const BatPtr& p : parts) {
    if (p != nullptr) total += p->Count();
  }
  BatPtr out = Bat::New(PhysType::kOid);
  out->Resize(total);
  Oid* dst = out->MutableTailData<Oid>();
  for (const BatPtr& p : parts) {
    if (p == nullptr || p->Count() == 0) continue;
    std::memcpy(dst, p->TailData<Oid>(), p->Count() * sizeof(Oid));
    dst += p->Count();
  }
  algebra::StampSelectResult(out);
  return out;
}

/// Decode-then-kernel over a compressed source without a code-space or
/// sorted route: each statistics block decodes into a scratch buffer and
/// the stock kernel runs over it, block-parallel under `ctx`, so the
/// column is never decoded whole. Chunk results concatenate in order,
/// which is the whole-column kernel's output.
Result<BatPtr> EvalDecodedChunks(const ColumnSource& source,
                                 const ScanPredicate& pred,
                                 const parallel::ExecContext& ctx) {
  const compress::CompressedBat& comp = *source.comp;
  constexpr size_t kRows = compress::CompressedBat::kStatBlockRows;
  const size_t n = comp.Count();
  std::vector<BatPtr> parts((n + kRows - 1) / kRows);
  MAMMOTH_RETURN_IF_ERROR(ctx.ParallelFor(
      parts.size(), 1, [&](size_t b, size_t e, int) -> Status {
        // Slots of the widest type; every row is written before use.
        auto buf = std::make_unique_for_overwrite<int64_t[]>(kRows);
        for (size_t c = b; c < e; ++c) {
          const size_t begin = c * kRows;
          const size_t end = std::min(n, begin + kRows);
          MAMMOTH_RETURN_IF_ERROR(
              comp.DecodeRangeRaw(begin, end - begin, buf.get()));
          const ChunkBuffer chunk{buf.get(), comp.type()};
          MAMMOTH_ASSIGN_OR_RETURN(
              parts[c],
              RunKernel(ChunkView(chunk, source.hseqbase, begin, end), nullptr,
                        pred, parallel::ExecContext::Serial()));
        }
        return Status::OK();
      }));
  return ConcatParts(parts);
}

/// The per-code keep LUT of a string predicate over a dictionary.
Result<std::vector<uint8_t>> DictLut(const compress::StrDict& dict,
                                     const ScanPredicate& pred) {
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return compress::DictStrThetaLut(dict, pred.v, pred.op);
  }
  return compress::DictStrRangeLut(dict, pred.lo, pred.hi, true, true,
                                   pred.anti);
}

}  // namespace

Result<BatPtr> RunKernel(const BatPtr& column, const BatPtr& cands,
                         const ScanPredicate& pred,
                         const parallel::ExecContext& ctx) {
  if (pred.kind == ScanPredicate::Kind::kTheta) {
    return algebra::ThetaSelect(column, cands, pred.v, pred.op, ctx);
  }
  return algebra::RangeSelect(column, cands, pred.lo, pred.hi, true, true,
                              pred.anti, ctx);
}

Result<BatPtr> RunKernelSource(const ColumnSource& source,
                               const ScanPredicate& pred,
                               const parallel::ExecContext& ctx) {
  if (source.sdict != nullptr) {
    return RunKernelDict(source, nullptr, pred, ctx);
  }
  if (CodeSpacePredicate(source, pred)) {
    compress::stats::SelectDirect();
    return EvalCodeSpace(source, pred, 0, source.Count(), source.hseqbase);
  }
  if (SortedPredicate(source, pred)) {
    compress::stats::SelectDirect();
    return EvalSorted(source, pred);
  }
  if (source.compressed()) {
    compress::stats::SelectFallback();
    return EvalDecodedChunks(source, pred, ctx);
  }
  return RunKernel(source.bat, nullptr, pred, ctx);
}

Result<BatPtr> RunKernelDict(const ColumnSource& source, const BatPtr& cands,
                             const ScanPredicate& pred,
                             const parallel::ExecContext& ctx) {
  if (source.sdict == nullptr) {
    return Status::InvalidArgument("select: not a dictionary source");
  }
  compress::stats::SelectDirect();
  MAMMOTH_ASSIGN_OR_RETURN(std::vector<uint8_t> lut,
                           DictLut(*source.sdict, pred));
  if (cands != nullptr) {
    return compress::DictStrSelectCands(*source.sdict, lut, cands,
                                        source.hseqbase);
  }
  // Every row: the code loop runs morsel by morsel under `ctx`, and the
  // parts concatenate in row order, which is the one-loop result.
  constexpr size_t kRows = parallel::TaskPool::kDefaultGrain;
  const size_t n = source.Count();
  std::vector<BatPtr> parts((n + kRows - 1) / kRows);
  MAMMOTH_RETURN_IF_ERROR(ctx.ParallelFor(
      parts.size(), 1, [&](size_t b, size_t e, int) -> Status {
        for (size_t c = b; c < e; ++c) {
          MAMMOTH_ASSIGN_OR_RETURN(
              parts[c], compress::DictStrSelectRange(
                            *source.sdict, lut, c * kRows,
                            std::min(n, (c + 1) * kRows), source.hseqbase));
        }
        return Status::OK();
      }));
  return ConcatParts(parts);
}

/// One consumer of a shared pass. All fields except `fn`'s captured
/// buffers are guarded by the owning group's mutex; the buffers are only
/// touched by chunk deliveries (never two at once for one consumer) and
/// handed back to the owner through that same mutex.
class SharedScanScheduler::Consumer {
 public:
  std::shared_ptr<Group> group;
  ColumnSource source;       ///< column this consumer reads (may be empty)
  /// False for code-space consumers: they evaluate over the compressed
  /// image in place, so the pass skips the chunk's decode when no other
  /// receiver needs the decoded bytes.
  bool wants_buffer = true;
  std::vector<bool> needed;  ///< per chunk: wanted and not yet delivered
  size_t remaining = 0;      ///< count of true bits in `needed`
  int inflight = 0;          ///< deliveries currently running our fn
  ChunkFn fn;
  Status error = Status::OK();
  bool failed = false;
};

/// Per-table pass state. `version`/`nrows`/`chunk_rows`/`nchunks`
/// describe the shape of the in-flight pass; they may only change while
/// the group is idle.
struct SharedScanScheduler::Group {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t version = 0;
  size_t nrows = 0;
  size_t chunk_rows = 0;
  size_t nchunks = 0;
  int attaching = 0;  ///< arrivals between route decision and Attach
  bool driver_active = false;
  std::vector<Consumer*> consumers;
  /// Free decode buffers of the in-flight pass (compressed sources
  /// decompress into these; returned after each delivery). Sized for the
  /// widest supported value so any source of the pass can reuse them.
  std::vector<std::unique_ptr<uint8_t[]>> buffer_pool;
  size_t buffer_rows = 0;  ///< rows each pooled buffer holds

  std::unique_ptr<uint8_t[]> TakeBufferLocked() {
    if (!buffer_pool.empty()) {
      std::unique_ptr<uint8_t[]> b = std::move(buffer_pool.back());
      buffer_pool.pop_back();
      return b;
    }
    return std::make_unique<uint8_t[]>(chunk_rows * sizeof(int64_t));
  }
};

SharedScanScheduler::SharedScanScheduler(const SharedScanConfig& config)
    : config_(config) {}

SharedScanScheduler::~SharedScanScheduler() = default;

size_t SharedScanScheduler::RowsPerChunk(size_t value_width) const {
  constexpr size_t kGrain = parallel::TaskPool::kDefaultGrain;
  const size_t rows = std::max(
      config_.chunk_bytes / std::max<size_t>(value_width, 1), kGrain);
  return (rows + kGrain - 1) / kGrain * kGrain;
}

std::shared_ptr<SharedScanScheduler::Group> SharedScanScheduler::GetGroup(
    const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Group>& g = groups_[table];
  if (g == nullptr) g = std::make_shared<Group>();
  return g;
}

size_t SharedScanScheduler::ActiveScans(const std::string& table) const {
  std::shared_ptr<Group> g;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = groups_.find(table);
    if (it == groups_.end()) return 0;
    g = it->second;
  }
  std::lock_guard<std::mutex> lock(g->mu);
  return g->consumers.size() + static_cast<size_t>(g->attaching);
}

std::vector<bool> SharedScanScheduler::PruneChunks(
    const BatPtr& column, const std::string& table,
    const std::string& column_name, uint64_t version,
    const ScanPredicate& pred, size_t chunk_rows) {
  if (column->type() != PhysType::kInt32 &&
      column->type() != PhysType::kInt64) {
    return {};
  }
  if (pred.kind == ScanPredicate::Kind::kTheta && !pred.v.is_numeric()) {
    return {};
  }
  std::shared_ptr<index::ZoneMap> zm;
  const std::string key = table + '\0' + column_name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = zonemaps_.find(key);
    if (it != zonemaps_.end() && it->second.version == version &&
        it->second.block_rows == chunk_rows) {
      zm = it->second.zonemap;
    }
  }
  if (zm == nullptr) {
    // Build outside the lock (O(n)); concurrent builders duplicate the
    // work at most once, last insert wins.
    auto built = index::ZoneMap::Build(column, chunk_rows);
    if (!built.ok()) return {};
    zm = std::make_shared<index::ZoneMap>(std::move(*built));
    std::lock_guard<std::mutex> lock(mu_);
    zonemaps_[key] = CachedZoneMap{version, chunk_rows, zm};
  }
  std::vector<bool> needed(zm->NumBlocks());
  for (size_t blk = 0; blk < needed.size(); ++blk) {
    needed[blk] = BlockMaySatisfy(pred, zm->BlockMin(blk), zm->BlockMax(blk),
                                  column->type());
  }
  return needed;
}

SharedScanScheduler::Consumer* SharedScanScheduler::Attach(
    const std::string& table, uint64_t version, size_t nrows,
    size_t chunk_rows, std::vector<bool> needed, ChunkFn fn) {
  auto group = GetGroup(table);
  std::lock_guard<std::mutex> lock(group->mu);
  const size_t nchunks = (nrows + chunk_rows - 1) / chunk_rows;
  const bool idle = group->consumers.empty() && group->attaching == 0;
  if (idle) {
    group->version = version;
    group->nrows = nrows;
    group->chunk_rows = chunk_rows;
    group->nchunks = nchunks;
    if (group->buffer_rows != chunk_rows) {
      group->buffer_pool.clear();
      group->buffer_rows = chunk_rows;
    }
  } else if (group->version != version || group->nrows != nrows ||
             group->chunk_rows != chunk_rows) {
    return nullptr;  // pass shape mismatch: caller scans directly
  }
  Consumer* c = new Consumer;
  c->group = group;
  if (needed.empty()) needed.assign(nchunks, true);
  c->needed = std::move(needed);
  c->remaining = static_cast<size_t>(
      std::count(c->needed.begin(), c->needed.end(), true));
  c->fn = std::move(fn);
  group->consumers.push_back(c);
  ++scans_attached_;
  return c;
}

size_t SharedScanScheduler::PickChunkLocked(Group& group,
                                            const Consumer& driver) const {
  size_t best_chunk = group.nchunks;
  size_t best_relevance = 0;
  for (size_t c = 0; c < group.nchunks; ++c) {
    if (!driver.needed[c]) continue;
    size_t relevance = 0;
    for (const Consumer* con : group.consumers) {
      if (con->needed[c]) ++relevance;
    }
    if (relevance > best_relevance) {  // ties resolve to the lowest index
      best_relevance = relevance;
      best_chunk = c;
    }
  }
  return best_chunk;
}

void SharedScanScheduler::DriveLocked(Group& group, Consumer* driver,
                                      std::unique_lock<std::mutex>& lock,
                                      const parallel::ExecContext& ctx) {
  /// One physical materialization of the chunk, shared by every receiver
  /// whose source has the same identity. Plain sources alias the BAT
  /// tail (zero copy); compressed ones decompress once into a pooled
  /// buffer.
  struct SourceLoad {
    const void* identity = nullptr;
    ColumnSource src;
    /// Whether any receiver reads the materialized buffer; a load all of
    /// whose receivers evaluate in code space skips materialization (and
    /// decompression) entirely.
    bool wanted = false;
    std::unique_ptr<uint8_t[]> buf;  ///< decode target (compressed only)
    ChunkBuffer view;
    Status status = Status::OK();
  };

  while (driver->remaining > 0) {
    const size_t chunk = PickChunkLocked(group, *driver);
    MAMMOTH_CHECK(chunk < group.nchunks, "driver with remaining needs a pick");
    // Snapshot the receivers and mark the chunk taken under the lock;
    // inflight keeps each receiver attached until its callback finished.
    // Receivers are grouped by source identity: one load per distinct
    // source, fanned out to all its consumers.
    std::vector<Consumer*> recv;
    std::vector<size_t> recv_load;
    std::vector<SourceLoad> loads;
    for (Consumer* con : group.consumers) {
      if (!con->needed[chunk]) continue;
      con->needed[chunk] = false;
      --con->remaining;
      ++con->inflight;
      const void* id = con->source.Identity();
      size_t li = loads.size();
      for (size_t i = 0; i < loads.size(); ++i) {
        if (loads[i].identity == id) {
          li = i;
          break;
        }
      }
      if (li == loads.size()) {
        SourceLoad l;
        l.identity = id;
        l.src = con->source;
        loads.push_back(std::move(l));
      }
      loads[li].wanted |= con->wants_buffer;
      recv.push_back(con);
      recv_load.push_back(li);
    }
    // Decode buffers only for loads some receiver reads decoded.
    for (SourceLoad& l : loads) {
      if (l.wanted && l.src.compressed()) l.buf = group.TakeBufferLocked();
    }
    const size_t begin = chunk * group.chunk_rows;
    const size_t end = std::min(group.nrows, begin + group.chunk_rows);
    chunks_loaded_ += loads.size();
    chunks_delivered_ += recv.size();
    lock.unlock();

    // Materialize each distinct source once (the chunk's bytes are
    // touched — or decompressed — a single time no matter how many
    // consumers receive them), then fan the deliveries out.
    uint64_t bytes_loaded = 0;
    uint64_t decompressed = 0;
    for (SourceLoad& l : loads) {
      const size_t rows = end - begin;
      if (!l.wanted) {
        // Every receiver runs in code space: the chunk's compressed bytes
        // are read in place, nothing is decoded or copied. Charge the
        // pro-rated compressed stream as the physical load.
        const size_t n = l.src.Count();
        const size_t cb =
            l.src.compressed() ? l.src.comp->CompressedBytes() : 0;
        if (n != 0) bytes_loaded += cb * rows / n;
        continue;
      }
      if (l.src.compressed()) {
        const compress::CompressedBat& comp = *l.src.comp;
        l.status = comp.DecodeRangeRaw(begin, rows, l.buf.get());
        l.view = ChunkBuffer{l.buf.get(), comp.type()};
        ++decompressed;
        // Pro-rate the compressed stream over the pass: the physical
        // bytes this chunk stands for.
        bytes_loaded += comp.Count() == 0
                            ? 0
                            : comp.CompressedBytes() * rows / comp.Count();
      } else if (l.src.bat != nullptr) {
        const auto* base =
            static_cast<const uint8_t*>(l.src.bat->tail().raw_data());
        const size_t width = l.src.bat->tail().width();
        l.view = ChunkBuffer{base + begin * width, l.src.bat->type()};
        bytes_loaded += rows * width;
      }
    }
    chunks_decompressed_ += decompressed;
    bytes_loaded_ += bytes_loaded;

    // One delivery per receiver; the TaskPool spreads the consumers'
    // predicate evaluations over the workers while the chunk's cache
    // lines are hot. When the driver is the chunk's sole receiver there
    // is nothing to fan out, so it evaluates inline with its own context
    // (morsel-parallel within the chunk) instead.
    uint64_t bytes_delivered = 0;
    for (size_t i = 0; i < recv.size(); ++i) {
      const ChunkBuffer& v = loads[recv_load[i]].view;
      if (v.data != nullptr) {
        bytes_delivered += (end - begin) * TypeWidth(v.type);
      }
    }
    bytes_delivered_ += bytes_delivered;

    std::vector<Status> results(recv.size());
    auto deliver = [&](size_t i, const parallel::ExecContext& eval_ctx) {
      SourceLoad& l = loads[recv_load[i]];
      results[i] = l.status.ok()
                       ? recv[i]->fn(chunk, begin, end, l.view, eval_ctx)
                       : l.status;
    };
    if (recv.size() == 1) {
      deliver(0, ctx);
    } else {
      Status st = ctx.ParallelFor(
          recv.size(), 1, [&](size_t b, size_t e, int) {
            for (size_t i = b; i < e; ++i) {
              deliver(i, parallel::ExecContext::Serial());
            }
            return Status::OK();
          });
      MAMMOTH_CHECK(st.ok(), "delivery morsels never fail");
    }

    lock.lock();
    // Return decode buffers to the pass's pool for the next chunk.
    for (SourceLoad& l : loads) {
      if (l.buf != nullptr) group.buffer_pool.push_back(std::move(l.buf));
    }
    for (size_t i = 0; i < recv.size(); ++i) {
      --recv[i]->inflight;
      if (!results[i].ok() && !recv[i]->failed) {
        // Cancel the failed consumer's outstanding chunks so its Drain
        // returns the error instead of waiting for pointless deliveries.
        recv[i]->failed = true;
        recv[i]->error = results[i];
        std::fill(recv[i]->needed.begin(), recv[i]->needed.end(), false);
        recv[i]->remaining = 0;
      }
    }
    group.cv.notify_all();
  }
}

Status SharedScanScheduler::Drain(Consumer* consumer,
                                  const parallel::ExecContext& ctx) {
  std::shared_ptr<Group> group = consumer->group;
  std::unique_lock<std::mutex> lock(group->mu);
  for (;;) {
    if (consumer->remaining == 0 && consumer->inflight == 0) break;
    if (!group->driver_active && consumer->remaining > 0) {
      group->driver_active = true;
      DriveLocked(*group, consumer, lock, ctx);
      group->driver_active = false;
      group->cv.notify_all();
      continue;  // recheck inflight (a prior driver may still deliver to us)
    }
    group->cv.wait(lock);
  }
  auto it = std::find(group->consumers.begin(), group->consumers.end(),
                      consumer);
  MAMMOTH_CHECK(it != group->consumers.end(), "consumer drained twice");
  group->consumers.erase(it);
  Status error = consumer->error;
  lock.unlock();
  delete consumer;
  return error;
}

std::vector<bool> SharedScanScheduler::PruneChunksCompressed(
    const compress::CompressedBat& comp, const ScanPredicate& pred,
    size_t chunk_rows) {
  if (pred.kind == ScanPredicate::Kind::kTheta && !pred.v.is_numeric()) {
    return {};
  }
  constexpr size_t kStatRows = compress::CompressedBat::kStatBlockRows;
  const size_t nstats = comp.NumStatBlocks();
  if (nstats == 0 || chunk_rows % kStatRows != 0) return {};
  const size_t stats_per_chunk = chunk_rows / kStatRows;
  const size_t nchunks = (comp.Count() + chunk_rows - 1) / chunk_rows;
  std::vector<bool> needed(nchunks, true);
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t first = c * stats_per_chunk;
    const size_t last = std::min(nstats, first + stats_per_chunk);
    if (first >= last) break;
    int64_t bmin = comp.StatMin(first);
    int64_t bmax = comp.StatMax(first);
    for (size_t s = first + 1; s < last; ++s) {
      bmin = std::min(bmin, comp.StatMin(s));
      bmax = std::max(bmax, comp.StatMax(s));
    }
    needed[c] = BlockMaySatisfy(pred, bmin, bmax, comp.type());
  }
  return needed;
}

Result<BatPtr> SharedScanScheduler::Select(const ColumnSource& source,
                                           const std::string& table,
                                           const std::string& column_name,
                                           uint64_t version,
                                           const ScanPredicate& pred,
                                           const parallel::ExecContext& ctx) {
  // Ineligible shapes go straight to the kernels: sorted columns select
  // in O(log n), dense tails and strings have their own specialized
  // paths, and short columns cost more to coordinate than to rescan.
  // (Compressed sources are integer by construction; a sorted one binary
  // searches its compressed image.) A dictionary source never rides a
  // pass: each select reads the packed codes through its own LUT, so a
  // pass would share no load and only make the select wait on the other
  // consumers' chunks. A code-space-rewritable predicate over a
  // compressed source rides the pass without decoding: its per-chunk
  // evaluation reads the compressed image in place.
  const bool code_space = CodeSpacePredicate(source, pred);
  bool eligible;
  if (source.sdict != nullptr) {
    eligible = false;
  } else if (source.compressed()) {
    eligible = !source.comp->props().sorted &&
               source.comp->Count() >= config_.min_share_rows;
  } else {
    const BatPtr& column = source.bat;
    eligible = column != nullptr && column->type() != PhysType::kStr &&
               !column->props().sorted && !column->IsDenseTail() &&
               column->Count() >= config_.min_share_rows;
  }
  if (!eligible) return RunKernelSource(source, pred, ctx);

  const size_t nrows = source.Count();
  // The pass's chunk grain adapts to the column width (comparable chunk
  // *bytes* across types); a joiner adopts the grain of the pass it
  // joins — the chunk grid lives over row positions, so any column of
  // the table can ride it.
  size_t pass_chunk_rows = RowsPerChunk(TypeWidth(source.type()));
  size_t nchunks = (nrows + pass_chunk_rows - 1) / pass_chunk_rows;
  auto group = GetGroup(table);

  // Route: a lone scan *starts* a chunk-at-a-time pass (counted direct —
  // it joined nobody — but later arrivals can join it mid-flight, which a
  // monolithic kernel sweep would make impossible); arrivals on a busy
  // group of matching (version, nrows) shape join the in-flight pass.
  // Only a shape mismatch keeps a scan out entirely: it cannot mix rows
  // with the other snapshot's pass, so it pays the plain kernel.
  enum class Mode { kStart, kJoin, kFallback };
  Mode mode;
  {
    std::lock_guard<std::mutex> lock(group->mu);
    const bool busy = !group->consumers.empty() || group->attaching > 0;
    if (!busy) {
      group->version = version;
      group->nrows = nrows;
      group->chunk_rows = pass_chunk_rows;
      group->nchunks = nchunks;
      if (group->buffer_rows != pass_chunk_rows) {
        group->buffer_pool.clear();
        group->buffer_rows = pass_chunk_rows;
      }
      mode = Mode::kStart;
    } else if (group->version != version || group->nrows != nrows) {
      mode = Mode::kFallback;  // cannot mix rows with the other snapshot
    } else {
      mode = Mode::kJoin;
      pass_chunk_rows = group->chunk_rows;
      nchunks = group->nchunks;
    }
    if (mode != Mode::kFallback) {
      ++group->attaching;  // keeps the group busy while we prune chunks
    }
  }
  if (mode == Mode::kFallback) {
    ++scans_direct_;
    chunks_direct_ += nchunks;
    return RunKernelSource(source, pred, ctx);
  }
  const bool starts_pass = mode == Mode::kStart;

  // Prune chunks the zone map proves empty, attach, let the pass deliver
  // our chunks (driving it whenever no one else does), and assemble the
  // per-chunk results in chunk order. A compressed source prunes off its
  // own block statistics — skipped chunks are never decompressed.
  std::vector<bool> needed =
      source.compressed()
          ? PruneChunksCompressed(*source.comp, pred, pass_chunk_rows)
          : PruneChunks(source.bat, table, column_name, version, pred,
                        pass_chunk_rows);
  size_t skipped = 0;
  if (!needed.empty()) {
    skipped = nchunks - static_cast<size_t>(
                            std::count(needed.begin(), needed.end(), true));
  }
  chunks_skipped_ += skipped;

  std::vector<BatPtr> parts(nchunks);
  Consumer* consumer = nullptr;
  {
    const Oid col_hseq = source.hseqbase;
    ChunkFn fn;
    if (code_space) {
      // Code-space consumer: each chunk evaluates over the compressed
      // image directly; the delivered buffer (if any other receiver
      // forced a decode) is ignored.
      compress::stats::SelectDirect();
      fn = [&parts, col_hseq, source, pred](
               size_t chunk, size_t begin, size_t end, const ChunkBuffer&,
               const parallel::ExecContext&) -> Status {
        MAMMOTH_ASSIGN_OR_RETURN(
            parts[chunk], EvalCodeSpace(source, pred, begin, end, col_hseq));
        return Status::OK();
      };
    } else {
      if (source.compressed()) compress::stats::SelectFallback();
      // Every source that reaches here delivers a chunk image: plain
      // BATs alias their tail, compressed ones decode into a buffer.
      fn = [&parts, col_hseq, pred](
               size_t chunk, size_t begin, size_t end, const ChunkBuffer& buf,
               const parallel::ExecContext& eval_ctx) -> Status {
        MAMMOTH_ASSIGN_OR_RETURN(
            parts[chunk], RunKernel(ChunkView(buf, col_hseq, begin, end),
                                    nullptr, pred, eval_ctx));
        return Status::OK();
      };
    }
    std::lock_guard<std::mutex> lock(group->mu);
    // Attach inline (the shape cannot have changed: `attaching` kept the
    // group busy), releasing the placeholder in the same critical section.
    --group->attaching;
    consumer = new Consumer;
    consumer->group = group;
    consumer->source = source;
    consumer->wants_buffer = !code_space;
    consumer->needed =
        needed.empty() ? std::vector<bool>(nchunks, true) : std::move(needed);
    consumer->remaining = static_cast<size_t>(std::count(
        consumer->needed.begin(), consumer->needed.end(), true));
    consumer->fn = std::move(fn);
    group->consumers.push_back(consumer);
    if (starts_pass) {
      ++scans_direct_;
    } else {
      ++scans_attached_;
    }
  }
  MAMMOTH_RETURN_IF_ERROR(Drain(consumer, ctx));
  return ConcatParts(parts);
}

SharedScanStats SharedScanScheduler::stats() const {
  SharedScanStats s;
  s.scans_attached = scans_attached_.load();
  s.scans_direct = scans_direct_.load();
  s.chunks_loaded = chunks_loaded_.load();
  s.chunks_delivered = chunks_delivered_.load();
  s.chunks_skipped = chunks_skipped_.load();
  s.chunks_direct = chunks_direct_.load();
  s.loads_saved = s.chunks_delivered - s.chunks_loaded;
  s.chunks_decompressed = chunks_decompressed_.load();
  s.bytes_loaded = bytes_loaded_.load();
  s.bytes_delivered = bytes_delivered_.load();
  return s;
}

}  // namespace mammoth::scan
