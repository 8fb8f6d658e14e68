#ifndef MAMMOTH_CORE_TABLE_H_
#define MAMMOTH_CORE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "compress/compressed_bat.h"
#include "compress/dict_str.h"
#include "core/bat.h"
#include "core/value.h"
#include "txn/txn.h"

namespace mammoth {

/// One column of a relational schema.
struct ColumnDef {
  std::string name;
  PhysType type;
};

class Table;
using TablePtr = std::shared_ptr<Table>;

/// A relational table decomposed by column into BATs with dense (non-stored)
/// heads, exactly as the SQL front-end of §3.2: per column a main BAT plus a
/// pending-insert delta BAT, and one shared BAT of deleted positions. Delta
/// BATs delay updates to the main columns and make snapshots cheap (only the
/// deltas are copied).
class Table {
 public:
  static Result<TablePtr> Create(std::string name,
                                 std::vector<ColumnDef> schema);

  /// Creates a table adopting existing column BATs as the main storage
  /// (used by persistence; `columns` must match the schema arity/types and
  /// have equal counts).
  static Result<TablePtr> FromColumns(std::string name,
                                      std::vector<ColumnDef> schema,
                                      std::vector<BatPtr> columns);

  /// Persistence entry point for mixed representations: per column exactly
  /// one of `mains[i]` (uncompressed), `comps[i]` (compressed int), or
  /// `sdicts[i]` (dictionary-compressed string; the plain BAT is rebuilt at
  /// load) is set. All representations must agree on the row count;
  /// `policy` restores the table's compression policy flag.
  static Result<TablePtr> FromStorage(
      std::string name, std::vector<ColumnDef> schema,
      std::vector<BatPtr> mains,
      std::vector<std::shared_ptr<const compress::CompressedBat>> comps,
      std::vector<std::shared_ptr<const compress::StrDict>> sdicts,
      bool policy);

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& schema() const { return schema_; }
  size_t NumColumns() const { return schema_.size(); }

  /// Index of a named column, or NotFound.
  Result<size_t> ColumnIndex(std::string_view column_name) const;

  /// Rows visible to readers: main + inserts - deletes.
  size_t VisibleRowCount() const;

  /// Rows physically present (main + inserts, ignoring deletes).
  size_t PhysicalRowCount() const;

  /// Appends one row; `row` must match the schema arity and types
  /// (numeric values are narrowed to the column type). `stamp` is the
  /// row's commit stamp: kVisibleToAll for pre-transactional callers
  /// (recovery, direct embedding), txn::PendingStamp(id) for a
  /// transaction's uncommitted write (made durable by CommitVersions).
  Status Insert(const std::vector<Value>& row,
                uint64_t stamp = txn::kVisibleToAll);

  /// Marks the given head OIDs deleted under `stamp` (same convention as
  /// Insert). With `snap` set, enforces first-writer-wins: a target row
  /// already carrying a delete mark the snapshot does *not* see (another
  /// transaction's pending or later-committed delete) fails the whole
  /// call with kConflict before anything is mutated.
  Status Delete(const BatPtr& oids, uint64_t stamp = txn::kVisibleToAll,
                const txn::Snapshot* snap = nullptr);

  /// Cold-path materializer: main ++ inserts as one plain BAT (the main
  /// BAT itself when no inserts are pending). Queries never call it —
  /// they read the main image and DeltaColumn side by side — only
  /// MergeDeltas, catalog comparison and the Volcano oracle do. A
  /// compressed main decodes whole on every call; nothing keeps it.
  Result<BatPtr> ScanColumn(size_t idx) const;
  Result<BatPtr> ScanColumn(std::string_view column_name) const;

  /// Candidate list of live (non-deleted) positions, or nullptr when
  /// nothing was ever deleted ("all rows"). Stamp-blind: counts every
  /// insert and every delete mark regardless of commit state — correct
  /// only at quiescence (checkpoints, persistence, recovery equality).
  BatPtr LiveCandidates() const;

  /// --- MVCC (§14: versioned deltas) -----------------------------------
  ///
  /// Every pending insert row and delete mark carries a commit stamp
  /// (txn/txn.h). Readers resolve visibility through candidate lists:
  /// columns stay the full physical (main image, delta) pair, and
  /// VisibleCandidates excludes the positions a snapshot must not see.

  /// Candidate list of the positions visible to `snap`: rows whose insert
  /// stamp the snapshot sees, minus rows whose delete mark it sees.
  /// Returns a dense range when the visible set is a prefix (the common
  /// case: another transaction's uncommitted rows are the delta tail).
  BatPtr VisibleCandidates(const txn::Snapshot& snap) const;

  /// A key identifying the table content visible to `snap`, stable across
  /// other transactions' pending writes: recycler signatures hash it so a
  /// writer appending uncommitted rows no longer invalidates an unrelated
  /// reader's cached intermediates. Composed of the all-visible epoch,
  /// the latest commit at or before the snapshot, and (for the pending
  /// owner itself) its own write progress.
  uint64_t VisibleStateKey(const txn::Snapshot& snap) const;

  /// Claims this table for transaction `txn_id`'s writes. Returns false —
  /// without mutating anything — when another transaction holds it
  /// (write-write conflict; the caller surfaces kConflict). Idempotent
  /// for the current owner. The single-owner rule is what makes ROLLBACK
  /// a physical truncation: a transaction's pending rows are always the
  /// contiguous tail of the insert delta.
  bool AcquireWrite(uint64_t txn_id);
  /// Releases the claim if `txn_id` holds it (COMMIT or ROLLBACK).
  void ReleaseWrite(uint64_t txn_id);
  /// Transaction currently holding the write claim, 0 when unclaimed.
  uint64_t pending_owner() const { return pending_owner_; }

  /// Restamps every pending stamp of `txn_id` to `commit_ts`, records the
  /// commit in the visibility history, and releases the write claim.
  /// Caller holds the engine's exclusive lock: from this point snapshots
  /// at >= commit_ts see the rows.
  void CommitVersions(uint64_t txn_id, uint64_t commit_ts);

  /// Records a commit at `commit_ts` that was applied already-stamped
  /// (replica replay writes committed stamps directly under the exclusive
  /// lock), so VisibleStateKey moves forward.
  void NoteCommit(uint64_t commit_ts);

  /// Folds pending inserts into the main BATs and compacts deleted rows
  /// away (OIDs are renumbered densely). The relational equivalent of a
  /// checkpoint.
  Status MergeDeltas();

  /// Snapshot sharing main BATs but with copied deltas: writes to either
  /// side are invisible to the other as long as neither calls MergeDeltas().
  TablePtr Snapshot() const;

  /// A point-in-time marker of the delta state, cheap to take (no data is
  /// copied: Delete() replaces the deleted-list BAT wholesale, so holding
  /// the old pointer preserves it). Valid until the next MergeDeltas().
  struct DeltaMark {
    size_t insert_rows = 0;  ///< pending insert-delta length at the mark
    BatPtr deleted;          ///< deleted-list BAT at the mark
    /// Stamps parallel to `deleted` (replaced wholesale together).
    std::shared_ptr<const std::vector<uint64_t>> deleted_stamps;
    uint64_t version = 0;
  };

  /// Marks the current delta state so a failing multi-row statement can
  /// be rolled back to it (statement atomicity: the engine takes a mark,
  /// applies every row, and restores the mark if any row fails).
  DeltaMark Mark() const;

  /// Reverts all Insert()/Delete() calls made since `mark` was taken.
  /// Undefined if MergeDeltas() ran in between (the engine's exclusive
  /// lock prevents that).
  void Rollback(const DeltaMark& mark);

  /// Number of pending (unmerged) inserted rows.
  size_t PendingInsertCount() const {
    return inserts_.empty() ? 0 : inserts_[0]->Count();
  }
  /// Number of deleted, not-yet-compacted rows.
  size_t DeletedCount() const { return deleted_->Count(); }

  /// Direct access to the main BAT of a column (bypasses deltas). Empty
  /// stub when the column's main image is compressed.
  const BatPtr& MainColumn(size_t idx) const { return mains_[idx]; }

  /// The pending-insert delta of a column: a plain BAT headed at the main
  /// row count, so kernels run over it emit table-wide OIDs. String
  /// deltas share the main column's heap. Mutated by Insert/Rollback and
  /// replaced by MergeDeltas (callers hold the engine lock to read it).
  const BatPtr& DeltaColumn(size_t idx) const { return inserts_[idx]; }

  /// --- Compression (§5: compressed columns as first-class storage) ----

  /// Turns the compression policy on or off and converts the main image
  /// of every eligible column (int/bigint) right away: on compresses via
  /// CompressBest, off decodes back to plain BATs. Pending deltas are
  /// untouched (they sit on top of either representation and fold in at
  /// the next MergeDeltas). Bumps the version.
  Status SetCompression(bool on);

  /// True when new/merged int columns are stored compressed.
  bool compression_enabled() const { return compress_policy_; }

  /// The compressed main image of a column, or nullptr when the column is
  /// stored uncompressed.
  const std::shared_ptr<const compress::CompressedBat>& CompressedColumn(
      size_t idx) const {
    return compressed_[idx];
  }

  /// The dictionary image of a string column, or nullptr when the column
  /// has none (policy off, or cardinality above StrDict::kMaxDistinct).
  /// Unlike int columns the plain BAT stays resident — offset identity
  /// anchors deltas, joins, and group-by — so the dictionary is the
  /// *execution and persistence* image: code-space predicates scan it, and
  /// snapshots write it instead of the heap.
  const std::shared_ptr<const compress::StrDict>& StringDictColumn(
      size_t idx) const {
    return str_dicts_[idx];
  }

  /// Number of columns currently stored compressed (int codecs + string
  /// dictionaries).
  size_t CompressedColumnCount() const;
  /// Compressed bytes across compressed columns, and the uncompressed
  /// bytes those columns stand for.
  size_t CompressedBytesTotal() const;
  size_t CompressedLogicalBytesTotal() const;
  /// Bytes of the derived indexes compressed int columns hold next to
  /// their streams (CompressedBat::IndexBytes): block offsets, PFOR-DELTA
  /// block bases, RLE run lists. No column keeps a decoded copy.
  size_t CompressedCacheBytesTotal() const;

  /// Monotone write-progress counter, bumped by every
  /// Insert/Delete/MergeDeltas (restored by Rollback). Snapshot-dependent
  /// caches key on VisibleStateKey instead.
  uint64_t version() const { return version_; }

  /// Identity of the main image (every column's mains_/compressed_/
  /// str_dicts_ entry): a process-unique value that changes only when the
  /// main image is replaced — at load, MergeDeltas and SetCompression.
  /// Inserts and deletes leave it alone, so caches over the main image
  /// (shared-scan passes, zone maps, decode buffers) survive them.
  uint64_t main_epoch() const { return main_epoch_; }

 private:
  Table(std::string name, std::vector<ColumnDef> schema);

  static BatPtr NewColumnBat(const ColumnDef& def);

  /// Gives column `i` a fresh, empty insert delta headed at the main row
  /// count (string deltas share the main column's heap).
  void ResetDelta(size_t i);

  /// Rows in the main image, whatever its representation.
  size_t MainRowCount() const {
    return compressed_[0] != nullptr ? compressed_[0]->Count()
                                     : mains_[0]->Count();
  }

  /// True when the column type has a codec.
  static bool Compressible(PhysType t) {
    return t == PhysType::kInt32 || t == PhysType::kInt64;
  }

  std::string name_;
  std::vector<ColumnDef> schema_;
  std::vector<BatPtr> mains_;
  /// Parallel to mains_: non-null when the column's main image lives in
  /// compressed form (mains_[i] is then an empty stub).
  std::vector<std::shared_ptr<const compress::CompressedBat>> compressed_;
  /// Parallel to mains_: the dictionary image of a string column under the
  /// compression policy (mains_[i] stays the plain execution image).
  std::vector<std::shared_ptr<const compress::StrDict>> str_dicts_;
  std::vector<BatPtr> inserts_;
  /// One commit stamp per pending insert row (parallel to inserts_[i]).
  std::vector<uint64_t> insert_stamps_;
  BatPtr deleted_;  // sorted oid BAT of deleted head positions
  /// One commit stamp per delete mark (parallel to deleted_; replaced
  /// wholesale with it, so DeltaMark can hold both pointers).
  std::shared_ptr<const std::vector<uint64_t>> deleted_stamps_;
  /// Transaction holding the write claim (0 = none).
  uint64_t pending_owner_ = 0;
  /// (commit_ts, physical version) per commit since the last MergeDeltas,
  /// ascending; VisibleStateKey picks the last entry <= snapshot ts.
  std::vector<std::pair<uint64_t, uint64_t>> commit_history_;
  /// Epoch of the all-visible image: bumped by stamp-0 mutations,
  /// MergeDeltas, SetCompression, and Rollback.
  uint64_t all_visible_version_ = 0;
  bool compress_policy_ = false;
  uint64_t version_ = 0;
  uint64_t main_epoch_;
};

}  // namespace mammoth

#endif  // MAMMOTH_CORE_TABLE_H_
