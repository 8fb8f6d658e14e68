#include "mal/interpreter.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "common/timer.h"
#include "compress/compressed_exec.h"
#include "compress/compressed_kernels.h"
#include "core/candidates.h"
#include "core/group.h"
#include "core/join.h"
#include "core/project.h"
#include "core/sort.h"
#include "scan/shared_scan.h"

namespace mammoth::mal {

namespace {

/// Runtime slot for one MAL variable.
struct Rt {
  /// The slot's BAT. For a kBind slot this is the column's *main* image
  /// when it is plain or dictionary-backed, and null when it is
  /// compressed (until a consumer decodes it); `delta` holds the rest.
  BatPtr bat;
  /// Compressed main image of a bound column. `bat` stays null then:
  /// select, project and aggregate route the compressed image directly
  /// (code-space kernels, binary search, range decodes and gathers); any
  /// other consumer decodes the whole column into the slot via NeedBat.
  std::shared_ptr<const compress::CompressedBat> cbat;
  /// Dictionary image of a bound string column's main image. Unlike cbat,
  /// `bat` is set alongside it — the plain heap image stays resident — so
  /// only code-space-rewritable string predicates route through the
  /// dictionary; everything else reads `bat` unchanged.
  std::shared_ptr<const compress::StrDict> sdict;
  /// Pending inserts of a bound column (null when none): the table's
  /// plain delta BAT, headed at the main row count so kernels over it
  /// emit table-wide OIDs. Selects and projections run over the main
  /// image and the delta separately and concatenate only their results;
  /// every other consumer gets main ++ delta from NeedBat.
  BatPtr delta;
  Value scalar;
  uint64_t sig = 0;
  /// Base-table provenance, set by kBind (and only kBind): marks the main
  /// image as a whole base column, which makes a downstream full-column
  /// select eligible for the shared-scan path. `bind` points into the
  /// program's instruction list (stable for the run).
  const Instr* bind = nullptr;
  /// The table's main epoch: keys shared passes and zone maps, and stays
  /// put while inserts pile up in the delta.
  uint64_t main_epoch = 0;
};

uint64_t HashValue(const Value& v) {
  if (v.is_nil()) return 0x9e37;
  if (v.is_int()) return HashCombine(1, static_cast<uint64_t>(v.AsInt()));
  if (v.is_real()) {
    double d = v.AsReal();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return HashCombine(2, bits);
  }
  return HashCombine(3, HashString(v.AsStr()));
}

uint64_t InstrSignature(const Instr& ins, const std::vector<Rt>& vars) {
  uint64_t h = HashInt(static_cast<uint64_t>(ins.op) + uint64_t{0x51});
  for (int in : ins.inputs) {
    h = HashCombine(h, in < 0 ? uint64_t{0xfeed} : vars[in].sig);
  }
  for (const Value& c : ins.consts) h = HashCombine(h, HashValue(c));
  h = HashCombine(h, static_cast<uint64_t>(ins.cmp));
  h = HashCombine(h, static_cast<uint64_t>(ins.arith));
  h = HashCombine(h, ins.flag ? 1 : 0);
  h = HashCombine(h, HashString(ins.table));
  h = HashCombine(h, HashString(ins.column));
  return h;
}

bool Recyclable(OpCode op) {
  switch (op) {
    case OpCode::kBind:
    case OpCode::kBindCands:
    case OpCode::kResult:
      return false;
    default:
      return true;
  }
}

/// Whether a select takes part in recycler range subsumption: a plain
/// (non-anti) range with numeric bounds.
bool Subsumable(const Instr& ins) {
  return ins.op == OpCode::kRangeSelect && !ins.flag &&
         ins.consts[0].is_numeric() && ins.consts[1].is_numeric();
}

/// The key range subsumption matches under: the select's (column,
/// candidates) pair.
uint64_t RangeBase(const Instr& ins, const std::vector<Rt>& vars) {
  return HashCombine(vars[ins.inputs[0]].sig, ins.inputs[1] < 0
                                                  ? uint64_t{0xfeed}
                                                  : vars[ins.inputs[1]].sig);
}

/// Whether slot `id` holds a BAT image (plain or compressed).
bool HasImage(const std::vector<Rt>& vars, int id) {
  return id >= 0 && (vars[id].bat != nullptr || vars[id].cbat != nullptr);
}

Status MissingOperand(const char* what) {
  return Status::Internal(std::string("mal: missing BAT operand for ") +
                          what);
}

/// Validates the BAT operand and makes it one plain BAT: a compressed
/// main image decodes whole into the slot (the decode lives as long as
/// the query's slot does), and pending inserts append to a copy
/// (ConcatColumn). A slot merged with its delta is no longer a base-column
/// bind: its image is not the one the main epoch names.
Status NeedBat(std::vector<Rt>& vars, int id, const char* what) {
  if (!HasImage(vars, id)) return MissingOperand(what);
  Rt& v = vars[id];
  if (v.bat == nullptr) {
    MAMMOTH_ASSIGN_OR_RETURN(v.bat, v.cbat->Decode());
  }
  if (v.delta != nullptr) {
    v.bat = ConcatColumn(v.bat, v.delta);
    v.delta = nullptr;
    v.cbat = nullptr;
    v.sdict = nullptr;
    v.bind = nullptr;
  }
  return Status::OK();
}

/// Whether `cands` filters nothing: absent, or a dense list spanning every
/// row of a column of `count` rows headed at `hseq` (what
/// Table::VisibleCandidates yields for a main image without deletes).
/// Such a select is a full-column scan and may be routed through the
/// shared-scan scheduler.
bool CoversWholeColumn(const BatPtr& cands, size_t count, Oid hseq) {
  return cands == nullptr ||
         (cands->IsDenseTail() && cands->Count() == count &&
          cands->tseqbase() == hseq);
}

/// The scan source of a slot's main image: the compressed image when the
/// bind left one, the dictionary-backed string image when one exists, the
/// plain BAT otherwise.
scan::ColumnSource SourceOf(const Rt& in) {
  if (in.cbat != nullptr) return scan::ColumnSource::Compressed(in.cbat);
  if (in.sdict != nullptr) return scan::ColumnSource::Dict(in.bat, in.sdict);
  return scan::ColumnSource::Plain(in.bat);
}

/// A select over the main image of slot `in`. When `cands` filters
/// nothing (and `whole` allows it) it reads every row: through the
/// scheduler's shared pass when one is attached and the slot is a
/// base-table bind, else the scan layer's direct entry point; either one
/// picks code space, binary search or chunk-wise decode-then-kernel for
/// the image. Otherwise the kernel runs over the candidates, decoding a
/// compressed-only slot whole first (counted as a fallback; the decode
/// stays in the slot for the rest of the query).
Result<BatPtr> SelectMain(Rt& in, const BatPtr& cands,
                          const scan::ScanPredicate& pred, bool whole,
                          const parallel::ExecContext& ctx) {
  const scan::ColumnSource src = SourceOf(in);
  if (whole && CoversWholeColumn(cands, src.Count(), src.hseqbase)) {
    if (ctx.shared_scans() != nullptr && in.bind != nullptr) {
      return ctx.shared_scans()->Select(src, in.bind->table, in.bind->column,
                                        in.main_epoch, pred, ctx);
    }
    return scan::RunKernelSource(src, pred, ctx);
  }
  if (in.bat == nullptr) {
    compress::stats::SelectFallback();
    MAMMOTH_ASSIGN_OR_RETURN(in.bat, in.cbat->Decode());
  }
  return scan::RunKernel(in.bat, cands, pred, ctx);
}

/// A select over slot `in`. With pending inserts the sorted candidates
/// cut at the delta's head: the main half goes through SelectMain — so
/// shared passes, zone maps and code space still apply — and the delta
/// half through the stock kernel. Every delta OID follows every main OID,
/// so the two sorted results simply concatenate.
Result<BatPtr> SelectSlot(std::vector<Rt>& vars, int id, const BatPtr& cands,
                          const scan::ScanPredicate& pred, bool whole,
                          const parallel::ExecContext& ctx) {
  if (!HasImage(vars, id)) return MissingOperand("select");
  if (vars[id].delta != nullptr && !KnownSorted(cands)) {
    MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, id, "select"));
  }
  Rt& in = vars[id];
  if (in.delta == nullptr) return SelectMain(in, cands, pred, whole, ctx);
  const OidSplit split = SplitSortedOids(cands, in.delta->hseqbase());
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr tail,
                           scan::RunKernel(in.delta, split.high, pred, ctx));
  // No main candidates: skip the main image (a compressed one would
  // decode just to select nothing).
  if (split.low != nullptr && split.low->empty()) return tail;
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr head,
                           SelectMain(in, split.low, pred, whole, ctx));
  if (tail->empty()) return head;
  if (head->empty()) return tail;
  BatPtr out = ConcatColumn(head, tail);
  out->mutable_props().sorted = true;
  out->mutable_props().key = true;
  return out;
}

}  // namespace

std::string QueryResult::ToText(size_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < names.size(); ++c) {
    out += c == 0 ? "" : " | ";
    out += names[c];
  }
  out += "\n";
  for (size_t c = 0; c < names.size(); ++c) {
    out += c == 0 ? "" : "-+-";
    out += std::string(names[c].size(), '-');
  }
  out += "\n";
  const size_t rows = RowCount();
  char buf[64];
  for (size_t r = 0; r < rows && r < max_rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += " | ";
      const Bat& b = *columns[c];
      switch (b.type()) {
        case PhysType::kStr:
          out += std::string(b.StringAt(r));
          break;
        case PhysType::kDouble:
          std::snprintf(buf, sizeof(buf), "%.4f", b.ValueAt<double>(r));
          out += buf;
          break;
        case PhysType::kFloat:
          std::snprintf(buf, sizeof(buf), "%.4f", b.ValueAt<float>(r));
          out += buf;
          break;
        case PhysType::kOid:
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(b.OidAt(r)));
          out += buf;
          break;
        case PhysType::kInt64:
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(b.ValueAt<int64_t>(r)));
          out += buf;
          break;
        case PhysType::kInt32:
          std::snprintf(buf, sizeof(buf), "%d", b.ValueAt<int32_t>(r));
          out += buf;
          break;
        case PhysType::kInt16:
          std::snprintf(buf, sizeof(buf), "%d", b.ValueAt<int16_t>(r));
          out += buf;
          break;
        case PhysType::kBool:
        case PhysType::kInt8:
          std::snprintf(buf, sizeof(buf), "%d", b.ValueAt<int8_t>(r));
          out += buf;
          break;
      }
    }
    out += "\n";
  }
  if (rows > max_rows) out += "... (" + std::to_string(rows) + " rows)\n";
  return out;
}

Result<QueryResult> Interpreter::Run(const Program& program, RunStats* stats) {
  WallTimer total;
  std::vector<Rt> vars(program.nvars());
  QueryResult result;
  RunStats local;

  for (const Instr& ins : program.instrs()) {
    ++local.instructions;
    const uint64_t sig = InstrSignature(ins, vars);

    // --- Recycler: exact match -------------------------------------------
    if (recycler_ != nullptr && Recyclable(ins.op)) {
      std::vector<recycle::CachedVal> cached;
      if (recycler_->Lookup(sig, &cached) &&
          cached.size() == ins.outputs.size()) {
        for (size_t o = 0; o < ins.outputs.size(); ++o) {
          vars[ins.outputs[o]].bat = cached[o].bat;
          vars[ins.outputs[o]].cbat = cached[o].cbat;
          vars[ins.outputs[o]].scalar = cached[o].scalar;
          vars[ins.outputs[o]].sig = HashCombine(sig, o);
        }
        ++local.recycled;
        continue;
      }
    }

    WallTimer timer;

    switch (ins.op) {
      case OpCode::kBind: {
        MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog_->Get(ins.table));
        MAMMOTH_ASSIGN_OR_RETURN(size_t idx, t->ColumnIndex(ins.column));
        Rt& out = vars[ins.outputs[0]];
        // The main image binds as stored — compressed (decoded lazily, or
        // chunk-at-a-time by the scan path), or plain with the dictionary
        // alongside for code-space predicates — and pending inserts ride
        // next to it as the delta. Nothing is copied.
        out.cbat = t->CompressedColumn(idx);
        out.bat = out.cbat != nullptr ? nullptr : t->MainColumn(idx);
        out.sdict = t->StringDictColumn(idx);
        const BatPtr& delta = t->DeltaColumn(idx);
        out.delta = delta->empty() ? nullptr : delta;
        out.bind = &ins;
        out.main_epoch = t->main_epoch();
        // Signatures key on the *snapshot-visible* state, not the physical
        // version: rows another transaction appended but this snapshot
        // cannot see leave the key — and hence every cached downstream
        // intermediate — untouched. (Values at visible positions are
        // immutable, so results computed over an older physical image are
        // still bit-exact.)
        out.sig = HashCombine(HashCombine(HashString(ins.table),
                                          HashString(ins.column)),
                              t->VisibleStateKey(snap_));
        break;
      }
      case OpCode::kBindCands: {
        MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog_->Get(ins.table));
        Rt& out = vars[ins.outputs[0]];
        out.bat = t->VisibleCandidates(snap_);
        out.sig = HashCombine(HashCombine(HashString(ins.table), 0x71d),
                              t->VisibleStateKey(snap_));
        break;
      }
      case OpCode::kThetaSelect:
      case OpCode::kRangeSelect: {
        const bool range = ins.op == OpCode::kRangeSelect;
        const scan::ScanPredicate pred =
            range ? scan::ScanPredicate::Range(ins.consts[0], ins.consts[1],
                                               ins.flag)
                  : scan::ScanPredicate::Theta(ins.consts[0], ins.cmp);
        BatPtr cands = ins.inputs[1] < 0 ? nullptr : vars[ins.inputs[1]].bat;
        // --- Recycler: range subsumption ---------------------------------
        // A cached wider range over the same (column, candidates) pair can
        // serve as the candidate list: the cached output already reflects
        // the original candidate filtering, so refining within it is exact.
        const bool subsumed =
            recycler_ != nullptr && Subsumable(ins) &&
            recycler_->LookupRangeSuperset(RangeBase(ins, vars),
                                           ins.consts[0].AsReal(),
                                           ins.consts[1].AsReal(), &cands);
        MAMMOTH_ASSIGN_OR_RETURN(
            vars[ins.outputs[0]].bat,
            SelectSlot(vars, ins.inputs[0], cands, pred, !subsumed, ctx_));
        break;
      }
      case OpCode::kProject: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "projection"));
        const BatPtr& oids = vars[ins.inputs[0]].bat;
        if (!HasImage(vars, ins.inputs[1])) {
          return MissingOperand("projection");
        }
        const Rt& in = vars[ins.inputs[1]];
        // An identity projection (dense OID list covering every row — what
        // a WHERE-less query's candidate list looks like) passes a
        // compressed image through untouched, so a downstream aggregate
        // can fold it without ever decoding.
        if (in.bat == nullptr && in.delta == nullptr && oids->IsDenseTail() &&
            oids->Count() == in.cbat->Count() && oids->tseqbase() == 0 &&
            oids->hseqbase() == 0) {
          vars[ins.outputs[0]].cbat = in.cbat;
          break;
        }
        // Otherwise the main image gathers only the touched rows (bounded
        // decodes for a compressed one) and pending inserts gather from
        // the delta.
        MAMMOTH_ASSIGN_OR_RETURN(
            vars[ins.outputs[0]].bat,
            compress::ProjectMainDelta(oids, in.bat, in.cbat, in.delta, ctx_));
        break;
      }
      case OpCode::kJoin: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "join"));
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[1], "join"));
        MAMMOTH_ASSIGN_OR_RETURN(
            algebra::JoinResult jr,
            algebra::Join(vars[ins.inputs[0]].bat, vars[ins.inputs[1]].bat));
        vars[ins.outputs[0]].bat = jr.left;
        vars[ins.outputs[1]].bat = jr.right;
        break;
      }
      case OpCode::kGroup: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "group"));
        BatPtr prev = ins.inputs[1] < 0 ? nullptr : vars[ins.inputs[1]].bat;
        size_t prev_n = 0;
        if (ins.inputs[2] >= 0) {
          prev_n = static_cast<size_t>(vars[ins.inputs[2]].scalar.AsInt());
        }
        MAMMOTH_ASSIGN_OR_RETURN(
            algebra::GroupResult g,
            algebra::Group(vars[ins.inputs[0]].bat, prev, prev_n, ctx_));
        vars[ins.outputs[0]].bat = g.groups;
        vars[ins.outputs[1]].bat = g.extents;
        vars[ins.outputs[2]].scalar =
            Value::Int(static_cast<int64_t>(g.ngroups));
        break;
      }
      case OpCode::kAggrSum:
      case OpCode::kAggrCount:
      case OpCode::kAggrMin:
      case OpCode::kAggrMax:
      case OpCode::kAggrAvg: {
        BatPtr groups = ins.inputs[1] < 0 ? nullptr : vars[ins.inputs[1]].bat;
        size_t ngroups = 1;
        if (ins.inputs[2] >= 0) {
          ngroups = static_cast<size_t>(vars[ins.inputs[2]].scalar.AsInt());
        }
        // Compressed-direct aggregation: a global SUM/MIN/MAX over an
        // RLE or dictionary image folds runs/codes in O(runs + dict)
        // without decoding; COUNT only reads the row count. Grouped and
        // non-foldable aggregates decode via NeedBat below.
        if (ins.inputs[0] >= 0 && vars[ins.inputs[0]].bat == nullptr &&
            vars[ins.inputs[0]].cbat != nullptr &&
            vars[ins.inputs[0]].delta == nullptr) {
          const auto& comp = vars[ins.inputs[0]].cbat;
          Result<BatPtr> cr = Status::Internal("unrouted");
          bool routed = false;
          if (ins.op == OpCode::kAggrCount) {
            cr = algebra::AggrCount(groups, ngroups, comp->Count(), ctx_);
            routed = true;
          } else if (groups == nullptr &&
                     compress::AggregatableOnCompressed(*comp)) {
            switch (ins.op) {
              case OpCode::kAggrSum:
                cr = compress::CompressedAggrSum(*comp);
                routed = true;
                break;
              case OpCode::kAggrMin:
                cr = compress::CompressedAggrMin(*comp);
                routed = true;
                break;
              case OpCode::kAggrMax:
                cr = compress::CompressedAggrMax(*comp);
                routed = true;
                break;
              default:
                break;
            }
          }
          if (routed) {
            if (!cr.ok()) return cr.status();
            compress::stats::AggrDirect();
            vars[ins.outputs[0]].bat = *cr;
            break;
          }
          compress::stats::AggrFallback();
        }
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "aggr"));
        const BatPtr values = vars[ins.inputs[0]].bat;
        Result<BatPtr> r = Status::Internal("unreachable");
        switch (ins.op) {
          case OpCode::kAggrSum:
            r = algebra::AggrSum(values, groups, ngroups, ctx_);
            break;
          case OpCode::kAggrCount:
            r = algebra::AggrCount(groups, ngroups, values->Count(), ctx_);
            break;
          case OpCode::kAggrMin:
            r = algebra::AggrMin(values, groups, ngroups, ctx_);
            break;
          case OpCode::kAggrMax:
            r = algebra::AggrMax(values, groups, ngroups, ctx_);
            break;
          case OpCode::kAggrAvg:
            r = algebra::AggrAvg(values, groups, ngroups);
            break;
          default:
            break;
        }
        if (!r.ok()) return r.status();
        vars[ins.outputs[0]].bat = *r;
        break;
      }
      case OpCode::kCalcBin: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "batcalc"));
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[1], "batcalc"));
        MAMMOTH_ASSIGN_OR_RETURN(
            BatPtr r,
            algebra::CalcBinary(ins.arith, vars[ins.inputs[0]].bat,
                                vars[ins.inputs[1]].bat));
        vars[ins.outputs[0]].bat = r;
        break;
      }
      case OpCode::kCalcConst: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "batcalc"));
        MAMMOTH_ASSIGN_OR_RETURN(
            BatPtr r, algebra::CalcScalar(ins.arith, vars[ins.inputs[0]].bat,
                                          ins.consts[0]));
        vars[ins.outputs[0]].bat = r;
        break;
      }
      case OpCode::kSort: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "sort"));
        MAMMOTH_ASSIGN_OR_RETURN(
            algebra::SortResult s,
            algebra::Sort(vars[ins.inputs[0]].bat, ins.flag, ctx_));
        vars[ins.outputs[0]].bat = s.sorted;
        vars[ins.outputs[1]].bat = s.order;
        break;
      }
      case OpCode::kTopN: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "firstn"));
        MAMMOTH_ASSIGN_OR_RETURN(
            BatPtr r,
            algebra::TopN(vars[ins.inputs[0]].bat,
                          static_cast<size_t>(ins.consts[0].AsInt()),
                          ins.flag, ctx_));
        vars[ins.outputs[0]].bat = r;
        break;
      }
      case OpCode::kDistinct: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "unique"));
        MAMMOTH_ASSIGN_OR_RETURN(BatPtr r,
                                 algebra::Distinct(vars[ins.inputs[0]].bat, ctx_));
        vars[ins.outputs[0]].bat = r;
        break;
      }
      case OpCode::kResult: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "resultSet"));
        result.names.push_back(ins.column);
        result.columns.push_back(vars[ins.inputs[0]].bat);
        break;
      }
    }

    // Derived signatures + recycler insertion.
    if (Recyclable(ins.op)) {
      for (size_t o = 0; o < ins.outputs.size(); ++o) {
        vars[ins.outputs[o]].sig = HashCombine(sig, o);
      }
      if (recycler_ != nullptr) {
        std::vector<recycle::CachedVal> outs;
        outs.reserve(ins.outputs.size());
        for (int ov : ins.outputs) {
          outs.push_back({vars[ov].bat, vars[ov].cbat, vars[ov].scalar});
        }
        recycler_->Insert(sig, std::move(outs), timer.ElapsedSeconds());
        if (Subsumable(ins)) {
          recycler_->RegisterRange(RangeBase(ins, vars), ins.consts[0].AsReal(),
                                   ins.consts[1].AsReal(), sig);
        }
      }
    }
  }

  local.seconds = total.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace mammoth::mal
