#include "core/table.h"

#include <algorithm>
#include <atomic>

#include "core/dispatch.h"

namespace mammoth {

namespace {

/// Main epochs are unique across tables, so a table recreated under an
/// old name never matches a cache entry of its predecessor.
uint64_t NextMainEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Table::Table(std::string name, std::vector<ColumnDef> schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      main_epoch_(NextMainEpoch()) {
  mains_.reserve(schema_.size());
  compressed_.resize(schema_.size());
  str_dicts_.resize(schema_.size());
  inserts_.resize(schema_.size());
  for (const ColumnDef& def : schema_) mains_.push_back(NewColumnBat(def));
  for (size_t i = 0; i < schema_.size(); ++i) ResetDelta(i);
  deleted_ = Bat::New(PhysType::kOid);
  deleted_->mutable_props().sorted = true;
  deleted_->mutable_props().key = true;
  deleted_stamps_ = std::make_shared<const std::vector<uint64_t>>();
}

BatPtr Table::NewColumnBat(const ColumnDef& def) {
  return def.type == PhysType::kStr ? Bat::NewString(nullptr)
                                    : Bat::New(def.type);
}

void Table::ResetDelta(size_t i) {
  // Sharing the heap makes the merge step a plain offset append.
  inserts_[i] = schema_[i].type == PhysType::kStr
                    ? Bat::NewString(mains_[i]->heap())
                    : Bat::New(schema_[i].type);
  inserts_[i]->set_hseqbase(MainRowCount());
}

Result<TablePtr> Table::Create(std::string name,
                               std::vector<ColumnDef> schema) {
  if (schema.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  for (size_t i = 0; i < schema.size(); ++i) {
    for (size_t j = i + 1; j < schema.size(); ++j) {
      if (schema[i].name == schema[j].name) {
        return Status::AlreadyExists("duplicate column " + schema[i].name);
      }
    }
  }
  return TablePtr(new Table(std::move(name), std::move(schema)));
}

Result<TablePtr> Table::FromColumns(std::string name,
                                    std::vector<ColumnDef> schema,
                                    std::vector<BatPtr> columns) {
  MAMMOTH_ASSIGN_OR_RETURN(TablePtr t,
                           Create(std::move(name), std::move(schema)));
  if (columns.size() != t->schema_.size()) {
    return Status::InvalidArgument("FromColumns: column count mismatch");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == nullptr || columns[i]->type() != t->schema_[i].type) {
      return Status::TypeMismatch("FromColumns: column " +
                                  t->schema_[i].name + " type mismatch");
    }
    if (columns[i]->Count() != columns[0]->Count()) {
      return Status::InvalidArgument("FromColumns: column lengths differ");
    }
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    t->mains_[i] = std::move(columns[i]);
    t->ResetDelta(i);
  }
  t->main_epoch_ = NextMainEpoch();
  return t;
}

Result<size_t> Table::ColumnIndex(std::string_view column_name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == column_name) return i;
  }
  return Status::NotFound("no column named " + std::string(column_name));
}

size_t Table::PhysicalRowCount() const {
  return MainRowCount() + inserts_[0]->Count();
}

size_t Table::VisibleRowCount() const {
  return PhysicalRowCount() - deleted_->Count();
}

Status Table::Insert(const std::vector<Value>& row, uint64_t stamp) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const bool is_str_col = schema_[i].type == PhysType::kStr;
    if (is_str_col != row[i].is_str()) {
      return Status::TypeMismatch("column " + schema_[i].name +
                                  ": value kind mismatch");
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    Bat& delta = *inserts_[i];
    if (schema_[i].type == PhysType::kStr) {
      delta.AppendString(row[i].AsStr());
    } else {
      DispatchNumeric(schema_[i].type, [&](auto tag) {
        using T = typename decltype(tag)::type;
        delta.tail().Append<T>(row[i].As<T>());
      });
    }
  }
  insert_stamps_.push_back(stamp);
  if (stamp == txn::kVisibleToAll) ++all_visible_version_;
  ++version_;
  return Status::OK();
}

Status Table::Delete(const BatPtr& oids, uint64_t stamp,
                     const txn::Snapshot* snap) {
  if (oids == nullptr || oids->type() != PhysType::kOid) {
    return Status::InvalidArgument("delete: need bat[:oid]");
  }
  const size_t nrows = PhysicalRowCount();
  std::vector<Oid> add;
  add.reserve(oids->Count());
  for (size_t i = 0; i < oids->Count(); ++i) {
    const Oid o = oids->OidAt(i);
    if (o >= nrows) return Status::OutOfRange("delete: oid beyond table");
    add.push_back(o);
  }
  std::sort(add.begin(), add.end());
  add.erase(std::unique(add.begin(), add.end()), add.end());
  const size_t ndead = deleted_->Count();
  const std::vector<uint64_t>& dstamps = *deleted_stamps_;
  if (snap != nullptr) {
    // First-writer-wins: a target already marked by a delete this snapshot
    // cannot see lost the race to a transaction that committed after our
    // snapshot (or still has the mark pending). Fail before mutating.
    size_t d = 0;
    for (const Oid o : add) {
      while (d < ndead && deleted_->OidAt(d) < o) ++d;
      if (d < ndead && deleted_->OidAt(d) == o && !snap->Sees(dstamps[d])) {
        return Status::Conflict("row " + std::to_string(o) + " of " + name_ +
                                " was modified by a concurrent transaction");
      }
    }
  }
  // Merge-rebuild both lists wholesale (Mark() holds the old pointers).
  std::vector<Oid> moids;
  auto mstamps = std::make_shared<std::vector<uint64_t>>();
  moids.reserve(ndead + add.size());
  mstamps->reserve(ndead + add.size());
  size_t i = 0, j = 0;
  while (i < ndead || j < add.size()) {
    if (j >= add.size() ||
        (i < ndead && deleted_->OidAt(i) <= add[j])) {
      // Existing mark wins a tie: the first deleter's stamp is the one
      // that committed (or is still pending) on this row.
      if (j < add.size() && deleted_->OidAt(i) == add[j]) ++j;
      moids.push_back(deleted_->OidAt(i));
      mstamps->push_back(dstamps[i]);
      ++i;
    } else {
      moids.push_back(add[j]);
      mstamps->push_back(stamp);
      ++j;
    }
  }
  deleted_ = Bat::New(PhysType::kOid);
  deleted_->AppendRaw(moids.data(), moids.size());
  deleted_->mutable_props().sorted = true;
  deleted_->mutable_props().key = true;
  deleted_stamps_ = std::move(mstamps);
  if (stamp == txn::kVisibleToAll) ++all_visible_version_;
  ++version_;
  return Status::OK();
}

Result<BatPtr> Table::ScanColumn(size_t idx) const {
  if (idx >= schema_.size()) return Status::OutOfRange("no such column");
  BatPtr main = mains_[idx];
  if (compressed_[idx] != nullptr) {
    // Transparent read path: a compressed image decodes whole on every
    // call, into a BAT the caller owns (the MAL interpreter's reads go
    // through the main image and delta instead).
    MAMMOTH_ASSIGN_OR_RETURN(main, compressed_[idx]->Decode());
  }
  return ConcatColumn(main, inserts_[idx]);
}

Result<BatPtr> Table::ScanColumn(std::string_view column_name) const {
  MAMMOTH_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(column_name));
  return ScanColumn(idx);
}

BatPtr Table::LiveCandidates() const {
  const size_t nrows = PhysicalRowCount();
  if (deleted_->Count() == 0) return Bat::NewDense(0, nrows);
  BatPtr live = Bat::New(PhysType::kOid);
  live->Reserve(nrows - deleted_->Count());
  const Oid* dead = deleted_->TailData<Oid>();
  const size_t ndead = deleted_->Count();
  size_t d = 0;
  for (Oid o = 0; o < nrows; ++o) {
    if (d < ndead && dead[d] == o) {
      ++d;
      continue;
    }
    live->Append<Oid>(o);
  }
  live->mutable_props().sorted = true;
  live->mutable_props().key = true;
  return live;
}

Status Table::MergeDeltas() {
  const BatPtr live = LiveCandidates();
  const bool has_deletes = deleted_->Count() > 0;
  const bool has_inserts = inserts_[0]->Count() > 0;
  for (size_t i = 0; i < schema_.size(); ++i) {
    // A compressed column with no pending deltas is already its merged
    // image: skip the decode/re-encode churn (checkpoints call MergeDeltas
    // on every snapshot).
    if ((compressed_[i] != nullptr || str_dicts_[i] != nullptr) &&
        !has_deletes && !has_inserts) {
      continue;
    }
    MAMMOTH_ASSIGN_OR_RETURN(BatPtr merged, ScanColumn(i));
    if (has_deletes) {
      // Compact: keep only live positions.
      BatPtr compacted;
      if (schema_[i].type == PhysType::kStr) {
        compacted = Bat::NewString(merged->heap());
        compacted->Reserve(live->Count());
        for (size_t j = 0; j < live->Count(); ++j) {
          compacted->tail().Append<uint64_t>(
              merged->TailData<uint64_t>()[live->OidAt(j)]);
        }
      } else {
        compacted = Bat::New(schema_[i].type);
        compacted->Reserve(live->Count());
        DispatchNumeric(schema_[i].type, [&](auto tag) {
          using T = typename decltype(tag)::type;
          const T* src = merged->TailData<T>();
          for (size_t j = 0; j < live->Count(); ++j) {
            compacted->tail().Append<T>(src[live->OidAt(j)]);
          }
        });
      }
      mains_[i] = compacted;
    } else if (merged.get() != mains_[i].get()) {
      mains_[i] = merged;
    }
    compressed_[i] = nullptr;
    if (compress_policy_ && Compressible(schema_[i].type)) {
      // Re-encode the merged image; on failure (nothing to gain, or an
      // empty column) the plain BAT simply stays.
      Result<compress::CompressedBat> comp =
          compress::CompressedBat::CompressBest(mains_[i]);
      if (comp.ok()) {
        compressed_[i] =
            std::make_shared<const compress::CompressedBat>(*std::move(comp));
        mains_[i] = NewColumnBat(schema_[i]);
      }
    }
    str_dicts_[i] = nullptr;
    if (compress_policy_ && schema_[i].type == PhysType::kStr) {
      // String columns keep the plain BAT (offset identity anchors deltas
      // and joins); the dictionary rides alongside as the execution and
      // persistence image. High cardinality simply leaves it off.
      Result<compress::StrDict> dict = compress::StrDict::Encode(mains_[i]);
      if (dict.ok()) {
        str_dicts_[i] =
            std::make_shared<const compress::StrDict>(*std::move(dict));
      }
    }
  }
  // Fresh empty deltas, headed at the new main row count.
  for (size_t i = 0; i < schema_.size(); ++i) ResetDelta(i);
  deleted_ = Bat::New(PhysType::kOid);
  deleted_->mutable_props().sorted = true;
  deleted_->mutable_props().key = true;
  insert_stamps_.clear();
  deleted_stamps_ = std::make_shared<const std::vector<uint64_t>>();
  // The merge runs at quiescence (no open transactions), so the compacted
  // image is all-visible and the per-commit history can be dropped.
  commit_history_.clear();
  ++all_visible_version_;
  ++version_;
  main_epoch_ = NextMainEpoch();
  return Status::OK();
}

Table::DeltaMark Table::Mark() const {
  return DeltaMark{inserts_[0]->Count(), deleted_, deleted_stamps_, version_};
}

void Table::Rollback(const DeltaMark& mark) {
  for (const BatPtr& delta : inserts_) {
    // Shrink the delta back; interned strings appended since the mark
    // stay in the heap (harmless garbage) but their offsets vanish.
    delta->Resize(mark.insert_rows);
  }
  insert_stamps_.resize(mark.insert_rows);
  deleted_ = mark.deleted;
  deleted_stamps_ = mark.deleted_stamps;
  // Restoring the version is safe: the table content is bit-identical to
  // what that version number described, so recycler entries keyed on it
  // are valid again. The single-owner rule means nothing else touched the
  // deltas between the mark and this rollback.
  version_ = mark.version;
  // Conservative: if the reverted statement had all-visible stamps the
  // epoch moved forward at mutation time and must move again now.
  ++all_visible_version_;
}

TablePtr Table::Snapshot() const {
  TablePtr snap(new Table(name_, schema_));
  snap->mains_ = mains_;            // shared, immutable until MergeDeltas
  snap->compressed_ = compressed_;  // immutable byte streams: share
  snap->str_dicts_ = str_dicts_;    // immutable dictionaries: share
  snap->compress_policy_ = compress_policy_;
  for (size_t i = 0; i < inserts_.size(); ++i) {
    snap->inserts_[i] = inserts_[i]->Clone();
  }
  snap->insert_stamps_ = insert_stamps_;
  snap->deleted_ = deleted_->Clone();
  snap->deleted_stamps_ = deleted_stamps_;  // immutable vector: share
  snap->commit_history_ = commit_history_;
  snap->all_visible_version_ = all_visible_version_;
  snap->version_ = version_;
  snap->main_epoch_ = main_epoch_;
  return snap;
}

Status Table::SetCompression(bool on) {
  compress_policy_ = on;
  if (on) {
    // Fold pending deltas into the mains and re-encode under the new
    // policy in one step (MergeDeltas does both), so the compressed
    // image covers every visible row — not just the merged prefix.
    return MergeDeltas();
  }
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (compressed_[i] != nullptr) {
      MAMMOTH_ASSIGN_OR_RETURN(mains_[i], compressed_[i]->Decode());
      compressed_[i] = nullptr;
    }
    str_dicts_[i] = nullptr;  // the plain BAT is already resident
  }
  // Contents are unchanged, but cached plans/results key on the version
  // and the representation they bound to; be conservative.
  ++all_visible_version_;
  ++version_;
  main_epoch_ = NextMainEpoch();
  return Status::OK();
}

BatPtr Table::VisibleCandidates(const txn::Snapshot& snap) const {
  const size_t nmain = MainRowCount();
  const size_t nins = inserts_[0]->Count();
  const size_t nrows = nmain + nins;
  // Visible insert rows. Commits append in timestamp order and a pending
  // owner's rows sit at the tail, so the visible set is *usually* a
  // prefix — but a transaction that started before an unrelated commit
  // can own the tail while not seeing that commit, so check row by row.
  size_t vis_prefix = 0;
  bool prefix = true;  // visible insert rows form [0, vis_prefix)
  bool hole = false;
  bool all_ins = true;
  std::vector<char> ins_vis;
  if (nins > 0) {
    ins_vis.resize(nins);
    for (size_t j = 0; j < nins; ++j) {
      const bool v = snap.Sees(insert_stamps_[j]);
      ins_vis[j] = v ? 1 : 0;
      all_ins = all_ins && v;
      if (v && !hole) {
        ++vis_prefix;
      } else if (v) {
        prefix = false;  // visible row after a hole
      } else {
        hole = true;
      }
    }
  }
  // Delete marks the snapshot sees.
  const size_t ndead = deleted_->Count();
  const std::vector<uint64_t>& dstamps = *deleted_stamps_;
  size_t seen_dead = 0;
  for (size_t d = 0; d < ndead; ++d) {
    if (snap.Sees(dstamps[d])) ++seen_dead;
  }
  if (seen_dead == 0) {
    if (nins == 0 || all_ins) return Bat::NewDense(0, nrows);
    if (prefix) return Bat::NewDense(0, nmain + vis_prefix);
  }
  BatPtr out = Bat::New(PhysType::kOid);
  out->Reserve(nrows - seen_dead);
  size_t d = 0;
  for (Oid o = 0; o < nrows; ++o) {
    while (d < ndead && deleted_->OidAt(d) < o) ++d;
    const bool dead =
        d < ndead && deleted_->OidAt(d) == o && snap.Sees(dstamps[d]);
    const bool born = o < nmain || ins_vis[o - nmain] != 0;
    if (born && !dead) out->Append<Oid>(o);
  }
  out->mutable_props().sorted = true;
  out->mutable_props().key = true;
  return out;
}

uint64_t Table::VisibleStateKey(const txn::Snapshot& snap) const {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  uint64_t h = mix(0x14ull, all_visible_version_);
  for (auto it = commit_history_.rbegin(); it != commit_history_.rend();
       ++it) {
    if (it->first <= snap.ts) {
      h = mix(mix(h, it->first), it->second);
      break;
    }
  }
  if (pending_owner_ != 0 && pending_owner_ == snap.txn_id) {
    // The owner's own statements see its uncommitted writes; key them on
    // the write progress so each statement invalidates the last. Txn IDs
    // are never reused, so stale own-entries can never wrongly hit.
    h = mix(mix(h, pending_owner_), version_);
  }
  return h;
}

bool Table::AcquireWrite(uint64_t txn_id) {
  if (pending_owner_ != 0 && pending_owner_ != txn_id) return false;
  pending_owner_ = txn_id;
  return true;
}

void Table::ReleaseWrite(uint64_t txn_id) {
  if (pending_owner_ == txn_id) pending_owner_ = 0;
}

void Table::CommitVersions(uint64_t txn_id, uint64_t commit_ts) {
  const uint64_t pending = txn::PendingStamp(txn_id);
  for (uint64_t& s : insert_stamps_) {
    if (s == pending) s = commit_ts;
  }
  bool has_pending_marks = false;
  for (const uint64_t s : *deleted_stamps_) {
    has_pending_marks = has_pending_marks || s == pending;
  }
  if (has_pending_marks) {
    auto restamped =
        std::make_shared<std::vector<uint64_t>>(*deleted_stamps_);
    for (uint64_t& s : *restamped) {
      if (s == pending) s = commit_ts;
    }
    deleted_stamps_ = std::move(restamped);
  }
  NoteCommit(commit_ts);
  ReleaseWrite(txn_id);
}

void Table::NoteCommit(uint64_t commit_ts) {
  commit_history_.emplace_back(commit_ts, version_);
}

Result<TablePtr> Table::FromStorage(
    std::string name, std::vector<ColumnDef> schema,
    std::vector<BatPtr> mains,
    std::vector<std::shared_ptr<const compress::CompressedBat>> comps,
    std::vector<std::shared_ptr<const compress::StrDict>> sdicts,
    bool policy) {
  MAMMOTH_ASSIGN_OR_RETURN(TablePtr t,
                           Create(std::move(name), std::move(schema)));
  if (mains.size() != t->schema_.size() ||
      comps.size() != t->schema_.size() ||
      sdicts.size() != t->schema_.size()) {
    return Status::InvalidArgument("FromStorage: column count mismatch");
  }
  size_t nrows = 0;
  for (size_t i = 0; i < t->schema_.size(); ++i) {
    size_t count = 0;
    if (comps[i] != nullptr) {
      if (comps[i]->type() != t->schema_[i].type) {
        return Status::TypeMismatch("FromStorage: compressed column " +
                                    t->schema_[i].name + " type mismatch");
      }
      count = comps[i]->Count();
    } else if (sdicts[i] != nullptr) {
      if (t->schema_[i].type != PhysType::kStr) {
        return Status::TypeMismatch("FromStorage: dictionary column " +
                                    t->schema_[i].name + " is not a string");
      }
      count = sdicts[i]->Count();
    } else {
      if (mains[i] == nullptr || mains[i]->type() != t->schema_[i].type) {
        return Status::TypeMismatch("FromStorage: column " +
                                    t->schema_[i].name + " type mismatch");
      }
      count = mains[i]->Count();
    }
    if (i == 0) {
      nrows = count;
    } else if (count != nrows) {
      return Status::InvalidArgument("FromStorage: column lengths differ");
    }
  }
  for (size_t i = 0; i < t->schema_.size(); ++i) {
    if (comps[i] != nullptr) {
      t->compressed_[i] = std::move(comps[i]);
    } else if (sdicts[i] != nullptr) {
      // Rebuild the plain execution image once, at (exclusive) load time;
      // the dictionary stays alongside for code-space scans and the next
      // snapshot.
      MAMMOTH_ASSIGN_OR_RETURN(t->mains_[i], sdicts[i]->Decode());
      t->str_dicts_[i] = std::move(sdicts[i]);
    } else {
      t->mains_[i] = std::move(mains[i]);
    }
    t->ResetDelta(i);
  }
  t->compress_policy_ = policy;
  t->main_epoch_ = NextMainEpoch();
  return t;
}

size_t Table::CompressedColumnCount() const {
  size_t n = 0;
  for (const auto& c : compressed_) n += c != nullptr ? 1 : 0;
  for (const auto& d : str_dicts_) n += d != nullptr ? 1 : 0;
  return n;
}

size_t Table::CompressedBytesTotal() const {
  size_t n = 0;
  for (const auto& c : compressed_) {
    if (c != nullptr) n += c->CompressedBytes();
  }
  for (const auto& d : str_dicts_) {
    if (d != nullptr) n += d->CompressedBytes();
  }
  return n;
}

size_t Table::CompressedLogicalBytesTotal() const {
  size_t n = 0;
  for (const auto& c : compressed_) {
    if (c != nullptr) n += c->LogicalBytes();
  }
  for (const auto& d : str_dicts_) {
    if (d != nullptr) n += d->LogicalBytes();
  }
  return n;
}

size_t Table::CompressedCacheBytesTotal() const {
  size_t n = 0;
  for (const auto& c : compressed_) {
    if (c != nullptr) n += c->IndexBytes();
  }
  return n;
}

}  // namespace mammoth
