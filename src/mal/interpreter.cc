#include "mal/interpreter.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "common/timer.h"
#include "compress/compressed_exec.h"
#include "compress/compressed_kernels.h"
#include "core/group.h"
#include "core/join.h"
#include "core/project.h"
#include "core/sort.h"
#include "scan/shared_scan.h"

namespace mammoth::mal {

namespace {

/// Runtime slot for one MAL variable.
struct Rt {
  /// The slot's column image: a plain BAT for every computed
  /// intermediate, and for a kBind slot the column's *main* image as
  /// stored. Select, project and aggregate read an encoded image directly
  /// (scan::Select, gathers, folds); any other consumer decodes it whole
  /// into the slot via NeedBat.
  compress::ColumnImage image;
  /// Pending inserts of a bound column (null when none): the table's
  /// plain delta BAT, headed at the main row count so kernels over it
  /// emit table-wide OIDs. Selects and projections run over the main
  /// image and the delta separately and concatenate only their results;
  /// every other consumer gets main ++ delta from NeedBat.
  BatPtr delta;
  Value scalar;
  uint64_t sig = 0;
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

/// Whether slot `id` holds a column image.
bool HasImage(const std::vector<Rt>& vars, int id) {
  return id >= 0 && vars[id].image;
}

/// The plain BAT in slot `id`; null for an absent (negative) operand.
const BatPtr& BatIn(const std::vector<Rt>& vars, int id) {
  static const BatPtr kNone;
  return id < 0 ? kNone : vars[id].image.bat;
}

Status MissingOperand(const char* what) {
  return Status::Internal(std::string("mal: missing BAT operand for ") +
                          what);
}

/// Validates the BAT operand and makes it one plain BAT: an encoded main
/// image decodes whole into the slot (the decode lives as long as the
/// query's slot does), and pending inserts append to a copy
/// (ConcatColumn).
Status NeedBat(std::vector<Rt>& vars, int id, const char* what) {
  if (!HasImage(vars, id)) return MissingOperand(what);
  Rt& v = vars[id];
  if (v.image.bat == nullptr || v.delta != nullptr) {
    MAMMOTH_ASSIGN_OR_RETURN(BatPtr main, v.image.Decode());
    v.image = {.bat = ConcatColumn(main, v.delta)};
    v.delta = nullptr;
  }
  return Status::OK();
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
          vars[ins.outputs[o]].image = cached[o].image;
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
        // The main image binds as stored — compressed or a dictionary
        // (read in code space, decoded lazily or chunk-at-a-time by the
        // scan path), or plain — and pending inserts ride next to it as
        // the delta. Nothing is copied.
        out.image = t->MainImage(idx);
        const BatPtr& delta = t->DeltaColumn(idx);
        out.delta = delta->empty() ? nullptr : delta;
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
        out.image = {.bat = t->VisibleCandidates(snap_)};
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
        BatPtr cands = BatIn(vars, ins.inputs[1]);
        // --- Recycler: range subsumption ---------------------------------
        // A cached wider range over the same (column, candidates) pair can
        // serve as the candidate list: the cached output already reflects
        // the original candidate filtering, so refining within it is exact.
        const bool subsumed =
            recycler_ != nullptr && Subsumable(ins) &&
            recycler_->LookupRangeSuperset(RangeBase(ins, vars),
                                           ins.consts[0].AsReal(),
                                           ins.consts[1].AsReal(), &cands);
        if (!HasImage(vars, ins.inputs[0])) return MissingOperand("select");
        const Rt& in = vars[ins.inputs[0]];
        MAMMOTH_ASSIGN_OR_RETURN(
            vars[ins.outputs[0]].image.bat,
            scan::Select(in.image, in.delta, cands, pred, !subsumed, ctx_));
        break;
      }
      case OpCode::kProject: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "projection"));
        const BatPtr& oids = BatIn(vars, ins.inputs[0]);
        if (!HasImage(vars, ins.inputs[1])) {
          return MissingOperand("projection");
        }
        const Rt& in = vars[ins.inputs[1]];
        // An identity projection (dense OID list covering every row — what
        // a WHERE-less query's candidate list looks like) passes an encoded
        // image through untouched, so a downstream aggregate can fold it
        // without ever decoding.
        if (in.image.encoded() && in.delta == nullptr &&
            oids->IsDenseTail() && oids->Count() == in.image.Count() &&
            oids->tseqbase() == 0 && oids->hseqbase() == 0) {
          vars[ins.outputs[0]].image = in.image;
          break;
        }
        // Otherwise the main image gathers only the touched rows (bounded
        // decodes and code gathers for an encoded one) and pending inserts
        // gather from the delta.
        MAMMOTH_ASSIGN_OR_RETURN(
            vars[ins.outputs[0]].image.bat,
            compress::ProjectMainDelta(oids, in.image, in.delta, ctx_));
        break;
      }
      case OpCode::kJoin: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "join"));
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[1], "join"));
        MAMMOTH_ASSIGN_OR_RETURN(
            algebra::JoinResult jr,
            algebra::Join(BatIn(vars, ins.inputs[0]),
                          BatIn(vars, ins.inputs[1])));
        vars[ins.outputs[0]].image.bat = jr.left;
        vars[ins.outputs[1]].image.bat = jr.right;
        break;
      }
      case OpCode::kGroup: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "group"));
        BatPtr prev = BatIn(vars, ins.inputs[1]);
        size_t prev_n = 0;
        if (ins.inputs[2] >= 0) {
          prev_n = static_cast<size_t>(vars[ins.inputs[2]].scalar.AsInt());
        }
        MAMMOTH_ASSIGN_OR_RETURN(
            algebra::GroupResult g,
            algebra::Group(BatIn(vars, ins.inputs[0]), prev, prev_n, ctx_));
        vars[ins.outputs[0]].image.bat = g.groups;
        vars[ins.outputs[1]].image.bat = g.extents;
        vars[ins.outputs[2]].scalar =
            Value::Int(static_cast<int64_t>(g.ngroups));
        break;
      }
      case OpCode::kAggrSum:
      case OpCode::kAggrCount:
      case OpCode::kAggrMin:
      case OpCode::kAggrMax:
      case OpCode::kAggrAvg: {
        BatPtr groups = BatIn(vars, ins.inputs[1]);
        size_t ngroups = 1;
        if (ins.inputs[2] >= 0) {
          ngroups = static_cast<size_t>(vars[ins.inputs[2]].scalar.AsInt());
        }
        // Compressed-direct aggregation: a global SUM/MIN/MAX over an
        // RLE or dictionary image folds runs/codes in O(runs + dict)
        // without decoding; COUNT only reads the row count (of a string
        // dictionary too). Grouped and non-foldable aggregates decode via
        // NeedBat below.
        if (ins.inputs[0] >= 0 && vars[ins.inputs[0]].image.encoded() &&
            vars[ins.inputs[0]].delta == nullptr) {
          const compress::ColumnImage& image = vars[ins.inputs[0]].image;
          BatPtr folded;
          if (ins.op == OpCode::kAggrCount) {
            MAMMOTH_ASSIGN_OR_RETURN(
                folded,
                algebra::AggrCount(groups, ngroups, image.Count(), ctx_));
          } else if (groups == nullptr && ins.op != OpCode::kAggrAvg) {
            MAMMOTH_ASSIGN_OR_RETURN(
                folded, image.Fold(ins.op == OpCode::kAggrSum
                                       ? compress::FoldOp::kSum
                                   : ins.op == OpCode::kAggrMin
                                       ? compress::FoldOp::kMin
                                       : compress::FoldOp::kMax));
          }
          if (folded != nullptr) {
            compress::stats::AggrDirect();
            vars[ins.outputs[0]].image.bat = std::move(folded);
            break;
          }
          compress::stats::AggrFallback();
        }
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "aggr"));
        const BatPtr values = BatIn(vars, ins.inputs[0]);
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
        vars[ins.outputs[0]].image.bat = *r;
        break;
      }
      case OpCode::kCalcBin: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "batcalc"));
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[1], "batcalc"));
        MAMMOTH_ASSIGN_OR_RETURN(
            BatPtr r,
            algebra::CalcBinary(ins.arith, BatIn(vars, ins.inputs[0]),
                                BatIn(vars, ins.inputs[1])));
        vars[ins.outputs[0]].image.bat = r;
        break;
      }
      case OpCode::kCalcConst: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "batcalc"));
        MAMMOTH_ASSIGN_OR_RETURN(
            BatPtr r, algebra::CalcScalar(ins.arith, BatIn(vars, ins.inputs[0]),
                                          ins.consts[0]));
        vars[ins.outputs[0]].image.bat = r;
        break;
      }
      case OpCode::kSort: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "sort"));
        const BatPtr order = BatIn(vars, ins.inputs[1]);
        const BatPtr ties = BatIn(vars, ins.inputs[2]);
        MAMMOTH_ASSIGN_OR_RETURN(
            algebra::RefineSortResult s,
            algebra::RefineSort(BatIn(vars, ins.inputs[0]), order, ties,
                                ins.flag, ctx_));
        vars[ins.outputs[0]].image.bat = s.order;
        vars[ins.outputs[1]].image.bat = s.tie_groups;
        break;
      }
      case OpCode::kTopN: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "firstn"));
        MAMMOTH_ASSIGN_OR_RETURN(
            BatPtr r,
            algebra::TopN(BatIn(vars, ins.inputs[0]),
                          static_cast<size_t>(ins.consts[0].AsInt()),
                          ins.flag, ctx_));
        vars[ins.outputs[0]].image.bat = r;
        break;
      }
      case OpCode::kDistinct: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "unique"));
        MAMMOTH_ASSIGN_OR_RETURN(
            BatPtr r, algebra::Distinct(BatIn(vars, ins.inputs[0]), ctx_));
        vars[ins.outputs[0]].image.bat = r;
        break;
      }
      case OpCode::kSlice: {
        // Rows [lo, hi), clamped to the row count, through a dense OID
        // range; a slice of every row passes the BAT through.
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "slice"));
        BatPtr b = BatIn(vars, ins.inputs[0]);
        const size_t hi = std::min<uint64_t>(ins.consts[1].AsInt(), b->Count());
        const size_t lo = std::min<uint64_t>(ins.consts[0].AsInt(), hi);
        if (hi - lo < b->Count()) {
          MAMMOTH_ASSIGN_OR_RETURN(
              b, algebra::Project(Bat::NewDense(b->hseqbase() + lo, hi - lo),
                                  b, ctx_));
        }
        vars[ins.outputs[0]].image.bat = std::move(b);
        break;
      }
      case OpCode::kResult: {
        MAMMOTH_RETURN_IF_ERROR(NeedBat(vars, ins.inputs[0], "resultSet"));
        result.names.push_back(ins.column);
        result.columns.push_back(BatIn(vars, ins.inputs[0]));
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
          outs.push_back({vars[ov].image, vars[ov].scalar});
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
