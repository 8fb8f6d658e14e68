#ifndef MAMMOTH_SCAN_SHARED_SCAN_H_
#define MAMMOTH_SCAN_SHARED_SCAN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "compress/compressed_bat.h"
#include "compress/dict_str.h"
#include "core/bat.h"
#include "core/value.h"
#include "index/zonemap.h"
#include "parallel/exec_context.h"

namespace mammoth::scan {

/// The execution-side counterpart of the Cooperative Scans simulation in
/// scan/cooperative.h (§5): instead of *modelling* queries that share one
/// physical pass, the SharedScanScheduler makes real concurrent SELECTs
/// over one table ride a single chunk-at-a-time sweep over the BATs.
///
/// A table pass is divided into morsel-aligned chunks. Every routed scan
/// attaches as a *consumer* with the chunk set it still needs (zone-map
/// pruned for selective range predicates); one attached consumer at a time
/// acts as the *driver*: it repeatedly picks the next chunk with the
/// relevance policy of the simulation (the chunk needed by the most
/// attached consumers, ties to the lowest index, restricted to chunks the
/// driver itself needs) and delivers it to every consumer that wants it in
/// one go — the in-memory analogue of loading a disk chunk once and
/// handing it to all waiting queries: the chunk's cache lines are streamed
/// once per delivery instead of once per query. Late-arriving consumers
/// attach to the in-flight pass and circle back for the chunks they
/// missed, exactly like the simulation's mid-flight arrivals.

/// The column image a routed scan reads: either a plain BAT or a
/// compressed column. A pass over a compressed source decompresses each
/// chunk *once* into a pooled buffer and hands that buffer to every
/// consumer of the chunk — sharing the decompression work exactly like
/// the plain path shares the memory sweep.
struct ColumnSource {
  BatPtr bat;
  std::shared_ptr<const compress::CompressedBat> comp;
  /// The dictionary image of a string column; `bat` is set alongside it
  /// (the plain heap image) so ineligible predicates fall back to the
  /// string kernels. Code-space predicates scan the dict's packed codes
  /// and never materialize a chunk buffer.
  std::shared_ptr<const compress::StrDict> sdict;
  Oid hseqbase = 0;  ///< head base of the column (a CompressedBat has none)

  static ColumnSource Plain(BatPtr b) {
    ColumnSource s;
    s.hseqbase = b != nullptr ? b->hseqbase() : 0;
    s.bat = std::move(b);
    return s;
  }
  static ColumnSource Compressed(
      std::shared_ptr<const compress::CompressedBat> c, Oid hseq = 0) {
    ColumnSource s;
    s.comp = std::move(c);
    s.hseqbase = hseq;
    return s;
  }
  static ColumnSource Dict(BatPtr b,
                           std::shared_ptr<const compress::StrDict> d) {
    ColumnSource s = Plain(std::move(b));
    s.sdict = std::move(d);
    return s;
  }
  bool compressed() const { return comp != nullptr; }
  size_t Count() const {
    return comp != nullptr ? comp->Count()
                           : (bat != nullptr ? bat->Count() : 0);
  }
  PhysType type() const {
    return comp != nullptr ? comp->type()
                           : (bat != nullptr ? bat->type() : PhysType::kInt32);
  }
  /// Physical identity for per-chunk load sharing: consumers whose
  /// sources compare equal read the same bytes, so one materialization
  /// serves them all.
  const void* Identity() const {
    if (comp != nullptr) return comp.get();
    if (sdict != nullptr) return sdict.get();
    return bat != nullptr ? bat->tail().raw_data() : nullptr;
  }
};

/// The materialized image of one chunk, delivered to every consumer of
/// the chunk: `data` points at the value of the chunk's first row
/// (aliasing the BAT tail for plain sources — zero copy — or a pooled
/// decode buffer for compressed ones). Null for consumers that attached
/// without a source (the low-level Attach protocol). The buffer is only
/// valid for the duration of the ChunkFn call.
struct ChunkBuffer {
  const void* data = nullptr;
  PhysType type = PhysType::kInt32;
};

/// The predicate of a routed scan, normalized from the MAL select ops.
struct ScanPredicate {
  enum class Kind : uint8_t { kTheta, kRange };
  Kind kind = Kind::kTheta;
  Value v;                 ///< theta operand
  CmpOp op = CmpOp::kEq;   ///< theta comparison
  Value lo, hi;            ///< inclusive range bounds; nil = unbounded
  bool anti = false;       ///< range inversion

  static ScanPredicate Theta(Value value, CmpOp cmp) {
    ScanPredicate p;
    p.kind = Kind::kTheta;
    p.v = std::move(value);
    p.op = cmp;
    return p;
  }
  static ScanPredicate Range(Value range_lo, Value range_hi, bool anti_sel) {
    ScanPredicate p;
    p.kind = Kind::kRange;
    p.lo = std::move(range_lo);
    p.hi = std::move(range_hi);
    p.anti = anti_sel;
    return p;
  }
};

/// The one mapping of a ScanPredicate onto the select kernels in
/// core/select.h: evaluates `pred` over the rows of `column` that `cands`
/// lists (null = every row).
Result<BatPtr> RunKernel(const BatPtr& column, const BatPtr& cands,
                         const ScanPredicate& pred,
                         const parallel::ExecContext& ctx);

/// A whole-column select outside any shared pass. A predicate the source's
/// compressed or dictionary image answers in code space reads that image
/// in place, and a sorted compressed source binary-searches its stream
/// (both counted as direct selects); any other compressed source decodes
/// one statistics block at a time into scratch and runs RunKernel over
/// each (counted as a fallback), and a plain one runs RunKernel over its
/// image. Bit-identical to decode-then-kernel.
Result<BatPtr> RunKernelSource(const ColumnSource& source,
                               const ScanPredicate& pred,
                               const parallel::ExecContext& ctx);

struct SharedScanConfig {
  /// Target bytes per chunk: each pass derives its row grain from the
  /// width of the column that starts it (chunk_bytes / width, rounded up
  /// to the 64Ki-row TaskPool morsel, never below one morsel), so an
  /// int64 pass uses half the rows of an int32 pass and both sweep
  /// comparably sized chunks — the unit the relevance policy reasons
  /// about is cache footprint, not row count. The default (1 MiB) gives
  /// an int32 pass 256Ki-row chunks.
  size_t chunk_bytes = size_t{1} << 20;
  /// Columns shorter than this always take the direct kernel path —
  /// coordinating a scan that fits in one cache-resident sweep costs more
  /// than it shares.
  size_t min_share_rows = size_t{1} << 18;
};

/// Monotonic sharing counters (all values since construction).
struct SharedScanStats {
  uint64_t scans_attached = 0;   ///< scans that joined an in-flight pass
  uint64_t scans_direct = 0;     ///< eligible scans that started their own pass
  uint64_t chunks_loaded = 0;    ///< physical chunk deliveries (one sweep each)
  uint64_t chunks_delivered = 0; ///< per-consumer chunk deliveries
  uint64_t chunks_skipped = 0;   ///< consumer chunks pruned by zone maps
  /// Chunk-equivalents scanned outside the pass protocol entirely (the
  /// monolithic-kernel fallback for pass-shape mismatches).
  uint64_t chunks_direct = 0;
  /// Deliveries that rode along another consumer's load instead of paying
  /// their own: chunks_delivered - chunks_loaded.
  uint64_t loads_saved = 0;
  /// Chunk loads that decompressed a compressed source (once per chunk
  /// per source, shared by every consumer of the chunk).
  uint64_t chunks_decompressed = 0;
  /// Physical bytes materialized by chunk loads: tail bytes for plain
  /// sources, compressed stream bytes (pro-rated per chunk) for
  /// compressed ones.
  uint64_t bytes_loaded = 0;
  /// Logical (uncompressed) bytes handed to consumers across deliveries.
  uint64_t bytes_delivered = 0;
};

class SharedScanScheduler {
 public:
  /// Per-chunk consumer body: processes rows [begin, end) of the pass.
  /// Chunks arrive in relevance order, not position order; a consumer
  /// buffers per-chunk results and assembles them by chunk index. May be
  /// invoked from any attached consumer's thread (or a TaskPool worker),
  /// but never twice for the same chunk and never concurrently with
  /// another chunk of the same consumer. `buf` is the chunk's
  /// materialized image (see ChunkBuffer) — one load shared by every
  /// receiver. `eval_ctx` is the context the body should evaluate with:
  /// the driver's own context when it is the chunk's sole receiver (the
  /// evaluation may morsel-parallelize), the serial context when the
  /// delivery fans out — the receivers themselves already spread over
  /// the pool then.
  using ChunkFn = std::function<Status(size_t chunk, size_t begin, size_t end,
                                       const ChunkBuffer& buf,
                                       const parallel::ExecContext& eval_ctx)>;

  class Consumer;

  explicit SharedScanScheduler(const SharedScanConfig& config = {});
  ~SharedScanScheduler();

  SharedScanScheduler(const SharedScanScheduler&) = delete;
  SharedScanScheduler& operator=(const SharedScanScheduler&) = delete;

  /// The routed select: evaluates `pred` over the column image `source`
  /// of `table`@`version`, returning the qualifying OID BAT —
  /// bit-identical (values, hseqbase, properties) to RunKernelSource.
  /// When >= 1 other scan of the same table is active it joins that pass;
  /// a lone scan starts a chunk-at-a-time pass of its own (so later
  /// arrivals can join it mid-flight). A compressed source decompresses
  /// each chunk once into a pooled buffer shared by all attached
  /// consumers, and prunes chunks off its own block statistics (skipped
  /// chunks are never decompressed). Ineligible scans (sorted/dense/string
  /// columns, short columns) and arrivals whose (version, nrows) shape
  /// mismatches the busy pass take RunKernelSource.
  Result<BatPtr> Select(const ColumnSource& source, const std::string& table,
                        const std::string& column_name, uint64_t version,
                        const ScanPredicate& pred,
                        const parallel::ExecContext& ctx);

  /// --- Low-level pass protocol (Select attaches the same way) ---------
  /// Attaches a consumer to the pass over `nrows` rows of `table`@
  /// `version`, cut into chunks of `chunk_rows` rows. `needed` marks the
  /// chunks the consumer wants (empty = all); unneeded chunks count as
  /// skipped. Returns null when the group is already busy with a
  /// different (version, nrows, chunk grain) shape — the caller must then
  /// run its scan directly. May be called from inside a ChunkFn (a late
  /// arrival attaching mid-pass). The consumer reads no source: `fn`
  /// receives a null ChunkBuffer and reads whatever it captured.
  Consumer* Attach(const std::string& table, uint64_t version, size_t nrows,
                   size_t chunk_rows, std::vector<bool> needed, ChunkFn fn);

  /// Drives and/or waits until every needed chunk of `consumer` has been
  /// delivered, then detaches and destroys it. Exactly one Drain per
  /// Attach. Returns the first error any of this consumer's chunk
  /// callbacks produced.
  Status Drain(Consumer* consumer, const parallel::ExecContext& ctx);

  /// Number of scans (attached consumers + arrivals mid-attach) of
  /// `table` right now; a new arrival joins an existing pass iff this
  /// is >= 1.
  size_t ActiveScans(const std::string& table) const;

  SharedScanStats stats() const;

  /// The chunk grain a routed pass uses for columns of the given value
  /// width: chunk_bytes / width, morsel-aligned, at least one morsel.
  size_t RowsPerChunk(size_t value_width) const;

 private:
  struct Group;

  /// Builds (or fetches the cached) zone map of the column at the pass's
  /// chunk grain and returns the chunk mask `pred` cannot prove empty, or
  /// an empty vector ("need all") when the predicate/type does not
  /// support pruning.
  std::vector<bool> PruneChunks(const BatPtr& column,
                                const std::string& table,
                                const std::string& column_name,
                                uint64_t version, const ScanPredicate& pred,
                                size_t chunk_rows);

  /// Chunk pruning for a compressed source: aggregates the column's own
  /// per-block min/max statistics to the pass's chunk grain (the stat
  /// grain divides the morsel-aligned chunk grain), so skipped chunks
  /// are never decompressed. Empty = "need all".
  static std::vector<bool> PruneChunksCompressed(
      const compress::CompressedBat& comp, const ScanPredicate& pred,
      size_t chunk_rows);

  /// Relevance policy of the simulation: among chunks `driver` still
  /// needs, the one wanted by the most attached consumers (ties: lowest
  /// index). Requires the group lock.
  size_t PickChunkLocked(Group& group, const Consumer& driver) const;

  void DriveLocked(Group& group, Consumer* driver,
                   std::unique_lock<std::mutex>& lock,
                   const parallel::ExecContext& ctx);

  std::shared_ptr<Group> GetGroup(const std::string& table);

  const SharedScanConfig config_;

  mutable std::mutex mu_;  ///< guards groups_ and zonemaps_
  std::unordered_map<std::string, std::shared_ptr<Group>> groups_;

  /// Zone maps cached per (table\0column), invalidated by version or by
  /// a block-granularity change (a pass at a different chunk grain).
  struct CachedZoneMap {
    uint64_t version = 0;
    size_t block_rows = 0;
    std::shared_ptr<index::ZoneMap> zonemap;
  };
  std::unordered_map<std::string, CachedZoneMap> zonemaps_;

  std::atomic<uint64_t> scans_attached_{0};
  std::atomic<uint64_t> scans_direct_{0};
  std::atomic<uint64_t> chunks_loaded_{0};
  std::atomic<uint64_t> chunks_delivered_{0};
  std::atomic<uint64_t> chunks_skipped_{0};
  std::atomic<uint64_t> chunks_direct_{0};
  std::atomic<uint64_t> chunks_decompressed_{0};
  std::atomic<uint64_t> bytes_loaded_{0};
  std::atomic<uint64_t> bytes_delivered_{0};
};

}  // namespace mammoth::scan

#endif  // MAMMOTH_SCAN_SHARED_SCAN_H_
