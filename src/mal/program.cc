#include "mal/program.h"

#include <cstdio>

namespace mammoth::mal {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kBind:
      return "sql.bind";
    case OpCode::kBindCands:
      return "sql.tid";
    case OpCode::kThetaSelect:
      return "algebra.thetaselect";
    case OpCode::kRangeSelect:
      return "algebra.select";
    case OpCode::kProject:
      return "algebra.projection";
    case OpCode::kJoin:
      return "algebra.join";
    case OpCode::kGroup:
      return "group.subgroup";
    case OpCode::kAggrSum:
      return "aggr.sum";
    case OpCode::kAggrCount:
      return "aggr.count";
    case OpCode::kAggrMin:
      return "aggr.min";
    case OpCode::kAggrMax:
      return "aggr.max";
    case OpCode::kAggrAvg:
      return "aggr.avg";
    case OpCode::kCalcBin:
      return "batcalc.bin";
    case OpCode::kCalcConst:
      return "batcalc.const";
    case OpCode::kSort:
      return "algebra.sort";
    case OpCode::kTopN:
      return "algebra.firstn";
    case OpCode::kDistinct:
      return "algebra.unique";
    case OpCode::kSlice:
      return "algebra.slice";
    case OpCode::kResult:
      return "sql.resultSet";
  }
  return "?";
}

std::string Program::ToString() const {
  std::string out;
  char buf[64];
  for (const Instr& ins : instrs_) {
    std::string line = "  ";
    if (!ins.outputs.empty()) {
      line += "(";
      for (size_t i = 0; i < ins.outputs.size(); ++i) {
        if (i > 0) line += ", ";
        std::snprintf(buf, sizeof(buf), "v%d", ins.outputs[i]);
        line += buf;
      }
      line += ") := ";
    }
    line += OpCodeName(ins.op);
    line += "(";
    bool first = true;
    auto comma = [&] {
      if (!first) line += ", ";
      first = false;
    };
    if (!ins.table.empty()) {
      comma();
      line += "\"" + ins.table + "\"";
    }
    if (!ins.column.empty()) {
      comma();
      line += "\"" + ins.column + "\"";
    }
    for (int v : ins.inputs) {
      comma();
      if (v < 0) {
        line += "nil";
      } else {
        std::snprintf(buf, sizeof(buf), "v%d", v);
        line += buf;
      }
    }
    for (const Value& c : ins.consts) {
      comma();
      line += c.ToString();
    }
    if (ins.op == OpCode::kThetaSelect) {
      comma();
      line += CmpOpName(ins.cmp);
    }
    if (ins.op == OpCode::kCalcBin || ins.op == OpCode::kCalcConst) {
      comma();
      line += algebra::ArithOpName(ins.arith);
    }
    if (ins.flag) {
      comma();
      line += (ins.op == OpCode::kRangeSelect) ? "anti" : "desc";
    }
    line += ");\n";
    out += line;
  }
  return out;
}

int Program::Bind(const std::string& table, const std::string& column) {
  Instr& i = Append(OpCode::kBind);
  i.table = table;
  i.column = column;
  i.outputs = {NewVar()};
  return i.outputs[0];
}

int Program::BindCandidates(const std::string& table) {
  Instr& i = Append(OpCode::kBindCands);
  i.table = table;
  i.outputs = {NewVar()};
  return i.outputs[0];
}

int Program::ThetaSelect(int bat, int cands, const Value& v, CmpOp cmp) {
  Instr& i = Append(OpCode::kThetaSelect);
  i.inputs = {bat, cands};
  i.consts = {v};
  i.cmp = cmp;
  i.outputs = {NewVar()};
  return i.outputs[0];
}

int Program::RangeSelect(int bat, int cands, const Value& lo, const Value& hi,
                         bool anti) {
  Instr& i = Append(OpCode::kRangeSelect);
  i.inputs = {bat, cands};
  i.consts = {lo, hi};
  i.flag = anti;
  i.outputs = {NewVar()};
  return i.outputs[0];
}

int Program::Project(int oids, int values) {
  Instr& i = Append(OpCode::kProject);
  i.inputs = {oids, values};
  i.outputs = {NewVar()};
  return i.outputs[0];
}

std::pair<int, int> Program::Join(int l, int r) {
  Instr& i = Append(OpCode::kJoin);
  i.inputs = {l, r};
  i.outputs = {NewVar(), NewVar()};
  return {i.outputs[0], i.outputs[1]};
}

std::tuple<int, int, int> Program::Group(int bat, int prev, int prev_n) {
  Instr& i = Append(OpCode::kGroup);
  i.inputs = {bat, prev, prev_n};
  i.outputs = {NewVar(), NewVar(), NewVar()};
  return {i.outputs[0], i.outputs[1], i.outputs[2]};
}

int Program::Aggr(OpCode agg_op, int values, int groups, int ngroups) {
  Instr& i = Append(agg_op);
  i.inputs = {values, groups, ngroups};
  i.outputs = {NewVar()};
  return i.outputs[0];
}

int Program::CalcBin(algebra::ArithOp op, int a, int b) {
  Instr& i = Append(OpCode::kCalcBin);
  i.inputs = {a, b};
  i.arith = op;
  i.outputs = {NewVar()};
  return i.outputs[0];
}

int Program::CalcConst(algebra::ArithOp op, int a, const Value& v) {
  Instr& i = Append(OpCode::kCalcConst);
  i.inputs = {a};
  i.consts = {v};
  i.arith = op;
  i.outputs = {NewVar()};
  return i.outputs[0];
}

std::pair<int, int> Program::Sort(int bat, bool desc, int order, int ties) {
  Instr& i = Append(OpCode::kSort);
  i.inputs = {bat, order, ties};
  i.flag = desc;
  i.outputs = {NewVar(), NewVar()};
  return {i.outputs[0], i.outputs[1]};
}

int Program::TopN(int bat, size_t k, bool desc) {
  Instr& i = Append(OpCode::kTopN);
  i.inputs = {bat};
  i.consts = {Value::Int(static_cast<int64_t>(k))};
  i.flag = desc;
  i.outputs = {NewVar()};
  return i.outputs[0];
}

int Program::Distinct(int bat) {
  Instr& i = Append(OpCode::kDistinct);
  i.inputs = {bat};
  i.outputs = {NewVar()};
  return i.outputs[0];
}

int Program::Slice(int bat, size_t lo, size_t hi) {
  Instr& i = Append(OpCode::kSlice);
  i.inputs = {bat};
  i.consts = {Value::Int(static_cast<int64_t>(lo)),
              Value::Int(static_cast<int64_t>(hi))};
  i.outputs = {NewVar()};
  return i.outputs[0];
}

void Program::Result(int bat, const std::string& name) {
  Instr& i = Append(OpCode::kResult);
  i.inputs = {bat};
  i.column = name;
}

}  // namespace mammoth::mal
