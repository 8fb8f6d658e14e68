#include "mal/parser.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <string_view>
#include <vector>

namespace mammoth::mal {

namespace {

/// One parsed argument of a MAL call.
struct Arg {
  enum class Kind { kVar, kNil, kInt, kReal, kString, kOp, kFlag } kind;
  int var = -1;
  int64_t i = 0;
  double d = 0;
  std::string s;  // string literal / op token / flag token
};

/// Splits one instruction line (without the trailing ';') at the top level.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : s_(line) {}

  Status Parse(std::vector<int>* outputs, std::string* opname,
               std::vector<Arg>* args) {
    SkipWs();
    if (Peek() == '(') {
      // Output list.
      Get();
      while (true) {
        SkipWs();
        MAMMOTH_ASSIGN_OR_RETURN(int v, ParseVar());
        outputs->push_back(v);
        SkipWs();
        if (Peek() == ',') {
          Get();
          continue;
        }
        break;
      }
      MAMMOTH_RETURN_IF_ERROR(Expect(')'));
      SkipWs();
      MAMMOTH_RETURN_IF_ERROR(Expect(':'));
      MAMMOTH_RETURN_IF_ERROR(Expect('='));
    }
    SkipWs();
    // module.op name.
    while (std::isalnum(static_cast<unsigned char>(Peek())) ||
           Peek() == '.' || Peek() == '_') {
      opname->push_back(Get());
    }
    if (opname->empty()) return Status::InvalidArgument("mal: missing op");
    SkipWs();
    MAMMOTH_RETURN_IF_ERROR(Expect('('));
    SkipWs();
    if (Peek() != ')') {
      while (true) {
        MAMMOTH_ASSIGN_OR_RETURN(Arg a, ParseArg());
        args->push_back(std::move(a));
        SkipWs();
        if (Peek() == ',') {
          Get();
          SkipWs();
          continue;
        }
        break;
      }
    }
    MAMMOTH_RETURN_IF_ERROR(Expect(')'));
    return Status::OK();
  }

 private:
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char Get() { return pos_ < s_.size() ? s_[pos_++] : '\0'; }
  void SkipWs() {
    while (std::isspace(static_cast<unsigned char>(Peek()))) Get();
  }
  Status Expect(char c) {
    if (Get() != c) {
      return Status::InvalidArgument(std::string("mal: expected '") + c +
                                     "'");
    }
    return Status::OK();
  }

  Result<int> ParseVar() {
    if (Get() != 'v') return Status::InvalidArgument("mal: expected vN");
    int v = 0;
    bool any = false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) {
      v = v * 10 + (Get() - '0');
      any = true;
    }
    if (!any) return Status::InvalidArgument("mal: expected var number");
    return v;
  }

  Result<Arg> ParseArg() {
    Arg a;
    const char c = Peek();
    if (c == '"') {
      Get();
      a.kind = Arg::Kind::kString;
      while (Peek() != '"' && Peek() != '\0') a.s.push_back(Get());
      if (Get() != '"') {
        return Status::InvalidArgument("mal: unterminated string");
      }
      return a;
    }
    if (c == 'v' && pos_ + 1 < s_.size() &&
        std::isdigit(static_cast<unsigned char>(s_[pos_ + 1]))) {
      MAMMOTH_ASSIGN_OR_RETURN(a.var, ParseVar());
      a.kind = Arg::Kind::kVar;
      return a;
    }
    if (std::isalpha(static_cast<unsigned char>(c))) {
      std::string word;
      while (std::isalnum(static_cast<unsigned char>(Peek()))) {
        word.push_back(Get());
      }
      if (word == "nil") {
        a.kind = Arg::Kind::kNil;
      } else if (word == "desc" || word == "anti") {
        a.kind = Arg::Kind::kFlag;
        a.s = word;
      } else if (word == "like") {
        a.kind = Arg::Kind::kOp;
        a.s = word;
      } else {
        return Status::InvalidArgument("mal: unknown token " + word);
      }
      return a;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < s_.size() &&
         std::isdigit(static_cast<unsigned char>(s_[pos_ + 1])))) {
      std::string num;
      num.push_back(Get());
      bool real = false;
      while (std::isdigit(static_cast<unsigned char>(Peek())) ||
             Peek() == '.') {
        if (Peek() == '.') real = true;
        num.push_back(Get());
      }
      if (real) {
        a.kind = Arg::Kind::kReal;
        a.d = std::stod(num);
      } else {
        a.kind = Arg::Kind::kInt;
        a.i = std::stoll(num);
      }
      return a;
    }
    // Operator tokens: == != <= >= < > + - * / %
    a.kind = Arg::Kind::kOp;
    a.s.push_back(Get());
    if ((a.s == "=" || a.s == "!" || a.s == "<" || a.s == ">") &&
        Peek() == '=') {
      a.s.push_back(Get());
    }
    return a;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

Result<OpCode> OpFromName(const std::string& name) {
  static const std::map<std::string, OpCode> kOps = [] {
    std::map<std::string, OpCode> m;
    for (int i = 0; i <= static_cast<int>(OpCode::kResult); ++i) {
      const auto op = static_cast<OpCode>(i);
      m.emplace(OpCodeName(op), op);
    }
    return m;
  }();
  auto it = kOps.find(name);
  if (it == kOps.end()) return Status::InvalidArgument("mal: unknown op " + name);
  return it->second;
}

Result<CmpOp> CmpFromToken(const std::string& tok) {
  if (tok == "<") return CmpOp::kLt;
  if (tok == "<=") return CmpOp::kLe;
  if (tok == "==") return CmpOp::kEq;
  if (tok == "!=") return CmpOp::kNe;
  if (tok == ">=") return CmpOp::kGe;
  if (tok == ">") return CmpOp::kGt;
  if (tok == "like") return CmpOp::kLike;
  return Status::InvalidArgument("mal: bad comparison " + tok);
}

Result<algebra::ArithOp> ArithFromToken(const std::string& tok) {
  if (tok == "+") return algebra::ArithOp::kAdd;
  if (tok == "-") return algebra::ArithOp::kSub;
  if (tok == "*") return algebra::ArithOp::kMul;
  if (tok == "/") return algebra::ArithOp::kDiv;
  if (tok == "%") return algebra::ArithOp::kMod;
  return Status::InvalidArgument("mal: bad arith op " + tok);
}

Value ValueOfArg(const Arg& a) {
  switch (a.kind) {
    case Arg::Kind::kInt:
      return Value::Int(a.i);
    case Arg::Kind::kReal:
      return Value::Real(a.d);
    case Arg::Kind::kString:
      return Value::Str(a.s);
    case Arg::Kind::kNil:
    default:
      return Value::Nil();
  }
}

/// Splits args into buckets in order of appearance.
struct ArgBuckets {
  std::vector<std::string> strings;
  std::vector<int> vars;  // nil -> -1
  std::vector<Value> consts;
  std::vector<std::string> ops;
  bool flag = false;
};

ArgBuckets Bucketize(const std::vector<Arg>& args) {
  ArgBuckets b;
  for (const Arg& a : args) {
    switch (a.kind) {
      case Arg::Kind::kString:
        b.strings.push_back(a.s);
        break;
      case Arg::Kind::kVar:
        b.vars.push_back(a.var);
        break;
      case Arg::Kind::kNil:
        b.vars.push_back(-1);
        break;
      case Arg::Kind::kInt:
      case Arg::Kind::kReal:
        b.consts.push_back(ValueOfArg(a));
        break;
      case Arg::Kind::kOp:
        b.ops.push_back(a.s);
        break;
      case Arg::Kind::kFlag:
        b.flag = true;
        break;
    }
  }
  return b;
}

Status CheckShape(const ArgBuckets& b, size_t nvars, size_t nconsts,
                  size_t nstrings, size_t nops, size_t noutputs,
                  size_t want_outputs, const std::string& opname) {
  if (b.vars.size() != nvars || b.consts.size() != nconsts ||
      b.strings.size() != nstrings || b.ops.size() != nops ||
      noutputs != want_outputs) {
    return Status::InvalidArgument("mal: bad argument shape for " + opname);
  }
  return Status::OK();
}

}  // namespace

Result<Program> ParseMal(const std::string& text) {
  Program prog;
  int max_var = -1;
  std::vector<bool> defined;

  auto note_output = [&](int v) -> Status {
    if (v < 0) return Status::InvalidArgument("mal: negative variable");
    if (v >= static_cast<int>(defined.size())) defined.resize(v + 1, false);
    if (defined[v]) {
      return Status::InvalidArgument("mal: variable v" + std::to_string(v) +
                                     " assigned twice (SSA violation)");
    }
    defined[v] = true;
    max_var = std::max(max_var, v);
    return Status::OK();
  };
  auto check_input = [&](int v) -> Status {
    if (v < 0) return Status::OK();  // nil
    if (v >= static_cast<int>(defined.size()) || !defined[v]) {
      return Status::InvalidArgument("mal: use of undefined v" +
                                     std::to_string(v));
    }
    return Status::OK();
  };

  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(';', start);
    if (end == std::string::npos) {
      // Only whitespace may remain.
      if (text.find_first_not_of(" \t\r\n", start) != std::string::npos) {
        return Status::InvalidArgument("mal: missing ';'");
      }
      break;
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;

    std::vector<int> outputs;
    std::string opname;
    std::vector<Arg> args;
    LineParser lp(line);
    MAMMOTH_RETURN_IF_ERROR(lp.Parse(&outputs, &opname, &args));
    MAMMOTH_ASSIGN_OR_RETURN(OpCode op, OpFromName(opname));
    const ArgBuckets b = Bucketize(args);
    for (int v : outputs) MAMMOTH_RETURN_IF_ERROR(note_output(v));
    for (int v : b.vars) MAMMOTH_RETURN_IF_ERROR(check_input(v));

    Instr ins;
    ins.op = op;
    ins.outputs = outputs;
    ins.inputs = b.vars;
    ins.consts = b.consts;
    ins.flag = b.flag;
    const size_t no = outputs.size();
    switch (op) {
      case OpCode::kBind:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 0, 0, 2, 0, no, 1, opname));
        ins.table = b.strings[0];
        ins.column = b.strings[1];
        break;
      case OpCode::kBindCands:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 0, 0, 1, 0, no, 1, opname));
        ins.table = b.strings[0];
        break;
      case OpCode::kThetaSelect: {
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 2, 1, 0, 1, no, 1, opname));
        MAMMOTH_ASSIGN_OR_RETURN(ins.cmp, CmpFromToken(b.ops[0]));
        break;
      }
      case OpCode::kRangeSelect:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 2, 2, 0, 0, no, 1, opname));
        break;
      case OpCode::kProject:
      case OpCode::kCalcBin: {
        MAMMOTH_RETURN_IF_ERROR(
            CheckShape(b, 2, 0, 0, op == OpCode::kCalcBin ? 1 : 0, no, 1,
                       opname));
        if (op == OpCode::kCalcBin) {
          MAMMOTH_ASSIGN_OR_RETURN(ins.arith, ArithFromToken(b.ops[0]));
        }
        break;
      }
      case OpCode::kJoin:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 2, 0, 0, 0, no, 2, opname));
        break;
      case OpCode::kGroup:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 3, 0, 0, 0, no, 3, opname));
        break;
      case OpCode::kAggrSum:
      case OpCode::kAggrCount:
      case OpCode::kAggrMin:
      case OpCode::kAggrMax:
      case OpCode::kAggrAvg:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 3, 0, 0, 0, no, 1, opname));
        break;
      case OpCode::kCalcConst: {
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 1, 1, 0, 1, no, 1, opname));
        MAMMOTH_ASSIGN_OR_RETURN(ins.arith, ArithFromToken(b.ops[0]));
        break;
      }
      case OpCode::kSort:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 3, 0, 0, 0, no, 2, opname));
        break;
      case OpCode::kTopN:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 1, 1, 0, 0, no, 1, opname));
        break;
      case OpCode::kDistinct:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 1, 0, 0, 0, no, 1, opname));
        break;
      case OpCode::kSlice:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 1, 2, 0, 0, no, 1, opname));
        break;
      case OpCode::kResult:
        MAMMOTH_RETURN_IF_ERROR(CheckShape(b, 1, 0, 1, 0, no, 0, opname));
        ins.column = b.strings[0];
        break;
    }
    prog.mutable_instrs().push_back(std::move(ins));
  }
  // Reserve variable ids so the program can be extended after parsing.
  while (prog.nvars() <= max_var) prog.NewVar();
  return prog;
}

}  // namespace mammoth::mal
