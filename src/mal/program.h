#ifndef MAMMOTH_MAL_PROGRAM_H_
#define MAMMOTH_MAL_PROGRAM_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/calc.h"
#include "core/value.h"

namespace mammoth::mal {

/// Opcodes of the MAL-like back-end algebra (§3, Figure 1). Each
/// instruction has zero degrees of freedom: complex expressions are broken
/// into sequences of these by the front-end.
enum class OpCode : uint8_t {
  kBind,         // (table, column)            -> bat
  kBindCands,    // (table)                    -> live-row candidate bat
  kThetaSelect,  // bat, [cands]; const, cmp   -> oid bat
  kRangeSelect,  // bat, [cands]; lo, hi       -> oid bat
  kProject,      // oids, values               -> bat
  kJoin,         // l, r                       -> (loids, roids)
  kGroup,        // bat [, prev, prev_n]       -> (groups, extents, n)
  kAggrSum,      // values, [groups, n]        -> bat
  kAggrCount,    // values, [groups, n]        -> bat
  kAggrMin,      // values, [groups, n]        -> bat
  kAggrMax,      // values, [groups, n]        -> bat
  kAggrAvg,      // values, [groups, n]        -> bat
  kCalcBin,      // a, b; arith                -> bat
  kCalcConst,    // a; arith, const            -> bat
  kSort,         // bat, [order, ties]; desc   -> (order, ties)
  kTopN,         // bat; k, desc               -> oid bat
  kDistinct,     // bat                        -> bat
  kSlice,        // bat; lo, hi                -> bat
  kResult,       // bat; result column name    -> (sink)
};

const char* OpCodeName(OpCode op);

/// One MAL instruction in SSA form: every output variable is assigned
/// exactly once.
struct Instr {
  OpCode op;
  std::vector<int> outputs;
  std::vector<int> inputs;      // -1 marks an absent optional input
  std::vector<Value> consts;    // immediate operands
  CmpOp cmp = CmpOp::kEq;
  algebra::ArithOp arith = algebra::ArithOp::kAdd;
  bool flag = false;            // desc for sort/topn; anti for range
  std::string table;            // kBind/kBindCands
  std::string column;           // kBind / kResult name
};

/// A MAL program: a straight-line SSA instruction list (control flow lives
/// in the front-ends; the back-end plan for one query is a DAG linearized
/// here, as in MonetDB).
class Program {
 public:
  /// Allocates a fresh variable id.
  int NewVar() { return nvars_++; }
  int nvars() const { return nvars_; }

  Instr& Append(OpCode op) {
    instrs_.push_back(Instr{});
    instrs_.back().op = op;
    return instrs_.back();
  }

  const std::vector<Instr>& instrs() const { return instrs_; }
  std::vector<Instr>& mutable_instrs() { return instrs_; }

  /// Renders a readable MAL-ish listing, e.g.
  /// "v3 := algebra.thetaselect(v1, v2, 1927, ==);".
  std::string ToString() const;

  // --- Builder helpers (front-end convenience) -----------------------------
  int Bind(const std::string& table, const std::string& column);
  int BindCandidates(const std::string& table);
  int ThetaSelect(int bat, int cands, const Value& v, CmpOp cmp);
  int RangeSelect(int bat, int cands, const Value& lo, const Value& hi,
                  bool anti = false);
  int Project(int oids, int values);
  std::pair<int, int> Join(int l, int r);
  /// Returns (groups, extents, ngroups) variable ids; prev/prev_n may be -1.
  std::tuple<int, int, int> Group(int bat, int prev = -1, int prev_n = -1);
  int Aggr(OpCode agg_op, int values, int groups = -1, int ngroups = -1);
  int CalcBin(algebra::ArithOp op, int a, int b);
  int CalcConst(algebra::ArithOp op, int a, const Value& v);
  /// Returns (order, ties) variable ids; order/ties may be -1 (the first
  /// key of a chain) or the previous key's outputs (algebra::RefineSort).
  std::pair<int, int> Sort(int bat, bool desc = false, int order = -1,
                           int ties = -1);
  int TopN(int bat, size_t k, bool desc = false);
  int Distinct(int bat);
  /// Rows [lo, hi) of `bat`; hi clamps to its row count.
  int Slice(int bat, size_t lo, size_t hi);
  void Result(int bat, const std::string& name);

 private:
  std::vector<Instr> instrs_;
  int nvars_ = 0;
};

}  // namespace mammoth::mal

#endif  // MAMMOTH_MAL_PROGRAM_H_
