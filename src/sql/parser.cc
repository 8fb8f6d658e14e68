#include "sql/parser.h"

#include <algorithm>
#include <cctype>

#include "sql/lexer.h"

namespace mammoth::sql {

namespace {

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  Parser(std::vector<Token> tokens, const std::string& sql)
      : toks_(std::move(tokens)), sql_(sql) {}

  Result<Statement> ParseStatement() {
    if (IsKeyword("SELECT")) return ParseSelect();
    if (IsKeyword("CREATE")) return ParseCreate();
    if (IsKeyword("INSERT")) return ParseInsert();
    if (IsKeyword("DELETE")) return ParseDelete();
    if (IsKeyword("UPDATE")) return ParseUpdate();
    if (IsKeyword("ALTER")) return ParseAlter();
    if (AcceptKeyword("BEGIN")) {
      AcceptKeyword("TRANSACTION") || AcceptKeyword("WORK");
      MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
      return Statement{BeginStmt{}};
    }
    if (AcceptKeyword("START")) {
      MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("TRANSACTION"));
      MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
      return Statement{BeginStmt{}};
    }
    if (AcceptKeyword("COMMIT")) {
      AcceptKeyword("TRANSACTION") || AcceptKeyword("WORK");
      MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
      return Statement{CommitStmt{}};
    }
    if (AcceptKeyword("ROLLBACK")) {
      AcceptKeyword("TRANSACTION") || AcceptKeyword("WORK");
      MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
      return Statement{RollbackStmt{}};
    }
    if (AcceptKeyword("CHECKPOINT")) {
      MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
      return Statement{CheckpointStmt{}};
    }
    if (AcceptKeyword("PREPARE")) return ParsePrepare();
    if (AcceptKeyword("EXECUTE")) return ParseExecute();
    return Status::InvalidArgument(
        "expected SELECT/CREATE/INSERT/DELETE/UPDATE/ALTER/"
        "BEGIN/COMMIT/ROLLBACK/CHECKPOINT/PREPARE/EXECUTE");
  }

 private:
  const Token& Cur() const { return toks_[pos_]; }
  void Advance() {
    if (pos_ + 1 < toks_.size()) ++pos_;
  }

  bool IsKeyword(const char* kw) const {
    return Cur().kind == TokKind::kIdent && Upper(Cur().text) == kw;
  }

  bool AcceptKeyword(const char* kw) {
    if (!IsKeyword(kw)) return false;
    Advance();
    return true;
  }

  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument(std::string("expected ") + kw);
    }
    return Status::OK();
  }

  bool AcceptSymbol(const char* s) {
    if (!Cur().IsSymbol(s)) return false;
    Advance();
    return true;
  }

  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) {
      return Status::InvalidArgument(std::string("expected '") + s + "'");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Cur().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected identifier");
    }
    std::string name = Lower(Cur().text);
    Advance();
    return name;
  }

  Result<ColumnRef> ExpectColumnRef() {
    ColumnRef ref;
    MAMMOTH_ASSIGN_OR_RETURN(std::string first, ExpectIdent());
    if (AcceptSymbol(".")) {
      ref.table = std::move(first);
      MAMMOTH_ASSIGN_OR_RETURN(ref.column, ExpectIdent());
    } else {
      ref.column = std::move(first);
    }
    return ref;
  }

  Result<Value> ExpectLiteral() {
    const Token& t = Cur();
    if (t.IsSymbol("?")) {
      // Prepared-statement placeholder: ordinals assigned left to right.
      Value v = Value::Param(nparams_++);
      Advance();
      return v;
    }
    switch (t.kind) {
      case TokKind::kInt: {
        Value v = Value::Int(t.int_val);
        Advance();
        return v;
      }
      case TokKind::kReal: {
        Value v = Value::Real(t.real_val);
        Advance();
        return v;
      }
      case TokKind::kString: {
        Value v = Value::Str(t.text);
        Advance();
        return v;
      }
      default:
        return Status::InvalidArgument("expected literal");
    }
  }

 public:
  /// Number of `?` placeholders consumed (valid after ParseStatement).
  uint32_t nparams() const { return nparams_; }

 private:

  Result<CmpOp> ExpectCmpOp() {
    static constexpr std::pair<const char*, CmpOp> kOps[] = {
        {"=", CmpOp::kEq},  {"!=", CmpOp::kNe}, {"<=", CmpOp::kLe},
        {">=", CmpOp::kGe}, {"<", CmpOp::kLt},  {">", CmpOp::kGt},
    };
    for (const auto& [sym, op] : kOps) {
      if (Cur().IsSymbol(sym)) {
        Advance();
        return op;
      }
    }
    return Status::InvalidArgument("expected comparison operator");
  }

  /// Parses a select-list label for HAVING/ORDER BY: a (possibly
  /// qualified) column or AGG(col) / COUNT(*), rendered in the canonical
  /// SelectItem::Label() form.
  Result<std::string> ParseLabel() {
    MAMMOTH_ASSIGN_OR_RETURN(std::string first, ExpectIdent());
    const std::string up = Upper(first);
    const bool is_agg = up == "SUM" || up == "COUNT" || up == "MIN" ||
                        up == "MAX" || up == "AVG";
    if (is_agg && Cur().IsSymbol("(")) {
      Advance();
      std::string inner;
      if (AcceptSymbol("*")) {
        inner = "*";
      } else {
        MAMMOTH_ASSIGN_OR_RETURN(ColumnRef ref, ExpectColumnRef());
        inner = ref.ToString();
      }
      MAMMOTH_RETURN_IF_ERROR(ExpectSymbol(")"));
      return Lower(first) + "(" + inner + ")";
    }
    if (AcceptSymbol(".")) {
      MAMMOTH_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      return first + "." + col;
    }
    return first;
  }

  Result<std::vector<Predicate>> ParseWhere() {
    std::vector<Predicate> out;
    do {
      Predicate p;
      MAMMOTH_ASSIGN_OR_RETURN(p.column, ExpectColumnRef());
      if (AcceptKeyword("LIKE")) {
        p.op = CmpOp::kLike;
        MAMMOTH_ASSIGN_OR_RETURN(p.literal, ExpectLiteral());
        if (!p.literal.is_str() && !p.literal.is_param()) {
          return Status::InvalidArgument("LIKE needs a string pattern");
        }
        out.push_back(std::move(p));
        continue;
      }
      MAMMOTH_ASSIGN_OR_RETURN(p.op, ExpectCmpOp());
      if (Cur().kind == TokKind::kIdent) {
        // column op column: an equi-join condition.
        if (p.op != CmpOp::kEq) {
          return Status::Unimplemented("only equi-join predicates supported");
        }
        p.is_join = true;
        MAMMOTH_ASSIGN_OR_RETURN(p.rhs_column, ExpectColumnRef());
      } else {
        MAMMOTH_ASSIGN_OR_RETURN(p.literal, ExpectLiteral());
      }
      out.push_back(std::move(p));
    } while (AcceptKeyword("AND"));
    return out;
  }

  Result<Statement> ParseSelect() {
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectStmt stmt;
    do {
      SelectItem item;
      if (AcceptSymbol("*")) {
        item.star = true;
      } else {
        MAMMOTH_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
        const std::string up = Upper(name);
        AggFn agg = AggFn::kNone;
        if (up == "SUM") agg = AggFn::kSum;
        if (up == "COUNT") agg = AggFn::kCount;
        if (up == "MIN") agg = AggFn::kMin;
        if (up == "MAX") agg = AggFn::kMax;
        if (up == "AVG") agg = AggFn::kAvg;
        if (agg != AggFn::kNone && Cur().IsSymbol("(")) {
          Advance();
          item.agg = agg;
          if (AcceptSymbol("*")) {
            if (agg != AggFn::kCount) {
              return Status::InvalidArgument("only COUNT(*) takes *");
            }
          } else {
            MAMMOTH_ASSIGN_OR_RETURN(item.column, ExpectColumnRef());
          }
          MAMMOTH_RETURN_IF_ERROR(ExpectSymbol(")"));
        } else if (AcceptSymbol(".")) {
          item.column.table = name;
          MAMMOTH_ASSIGN_OR_RETURN(item.column.column, ExpectIdent());
        } else {
          item.column.column = name;
        }
      }
      stmt.items.push_back(std::move(item));
    } while (AcceptSymbol(","));

    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    do {
      MAMMOTH_ASSIGN_OR_RETURN(std::string table, ExpectIdent());
      stmt.tables.push_back(std::move(table));
    } while (AcceptSymbol(","));

    if (AcceptKeyword("WHERE")) {
      MAMMOTH_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    }
    if (AcceptKeyword("GROUP")) {
      MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        MAMMOTH_ASSIGN_OR_RETURN(ColumnRef col, ExpectColumnRef());
        stmt.group_by.push_back(std::move(col));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("HAVING")) {
      do {
        HavingPred h;
        MAMMOTH_ASSIGN_OR_RETURN(h.label, ParseLabel());
        MAMMOTH_ASSIGN_OR_RETURN(h.op, ExpectCmpOp());
        MAMMOTH_ASSIGN_OR_RETURN(h.literal, ExpectLiteral());
        stmt.having.push_back(std::move(h));
      } while (AcceptKeyword("AND"));
    }
    if (AcceptKeyword("ORDER")) {
      MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        OrderKey key;
        MAMMOTH_ASSIGN_OR_RETURN(key.label, ParseLabel());
        if (AcceptKeyword("DESC")) {
          key.desc = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(key));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("LIMIT")) {
      if (Cur().kind != TokKind::kInt || Cur().int_val < 0) {
        return Status::InvalidArgument("LIMIT expects a non-negative int");
      }
      stmt.limit = Cur().int_val;
      Advance();
    }
    MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseCreate() {
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    CreateStmt stmt;
    MAMMOTH_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    MAMMOTH_RETURN_IF_ERROR(ExpectSymbol("("));
    do {
      ColumnDef def;
      MAMMOTH_ASSIGN_OR_RETURN(def.name, ExpectIdent());
      MAMMOTH_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent());
      const std::string up = Upper(type_name);
      if (up == "TINYINT") {
        def.type = PhysType::kInt8;
      } else if (up == "SMALLINT") {
        def.type = PhysType::kInt16;
      } else if (up == "INT" || up == "INTEGER") {
        def.type = PhysType::kInt32;
      } else if (up == "BIGINT" || up == "LONG") {
        def.type = PhysType::kInt64;
      } else if (up == "DOUBLE" || up == "REAL" || up == "FLOAT") {
        def.type = PhysType::kDouble;
      } else if (up == "VARCHAR" || up == "TEXT" || up == "STRING") {
        def.type = PhysType::kStr;
        if (AcceptSymbol("(")) {  // VARCHAR(n): length ignored
          if (Cur().kind == TokKind::kInt) Advance();
          MAMMOTH_RETURN_IF_ERROR(ExpectSymbol(")"));
        }
      } else {
        return Status::InvalidArgument("unknown type " + type_name);
      }
      stmt.columns.push_back(std::move(def));
    } while (AcceptSymbol(","));
    MAMMOTH_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (AcceptKeyword("COMPRESSED")) stmt.compressed = true;
    MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseAlter() {
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("ALTER"));
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    AlterStmt stmt;
    MAMMOTH_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (AcceptKeyword("COMPRESS")) {
      stmt.compress = true;
    } else if (AcceptKeyword("DECOMPRESS")) {
      stmt.compress = false;
    } else {
      return Status::InvalidArgument("expected COMPRESS or DECOMPRESS");
    }
    MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseInsert() {
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStmt stmt;
    MAMMOTH_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    do {
      MAMMOTH_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<Value> row;
      do {
        MAMMOTH_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
        row.push_back(std::move(v));
      } while (AcceptSymbol(","));
      MAMMOTH_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt.rows.push_back(std::move(row));
    } while (AcceptSymbol(","));
    MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseDelete() {
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DeleteStmt stmt;
    MAMMOTH_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (AcceptKeyword("WHERE")) {
      MAMMOTH_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    }
    MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseUpdate() {
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    UpdateStmt stmt;
    MAMMOTH_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("SET"));
    do {
      std::string col;
      MAMMOTH_ASSIGN_OR_RETURN(col, ExpectIdent());
      MAMMOTH_RETURN_IF_ERROR(ExpectSymbol("="));
      MAMMOTH_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
      stmt.sets.emplace_back(std::move(col), std::move(v));
    } while (AcceptSymbol(","));
    if (AcceptKeyword("WHERE")) {
      MAMMOTH_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    }
    MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParsePrepare() {
    PrepareStmt stmt;
    MAMMOTH_ASSIGN_OR_RETURN(stmt.name, ExpectIdent());
    MAMMOTH_RETURN_IF_ERROR(ExpectKeyword("AS"));
    stmt.body = sql_.substr(Cur().pos);
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseExecute() {
    ExecuteStmt stmt;
    MAMMOTH_ASSIGN_OR_RETURN(stmt.name, ExpectIdent());
    if (AcceptSymbol("(") && !AcceptSymbol(")")) {
      do {
        MAMMOTH_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
        stmt.params.push_back(std::move(v));
      } while (AcceptSymbol(","));
      MAMMOTH_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    MAMMOTH_RETURN_IF_ERROR(ExpectEndOfStatement());
    return Statement{std::move(stmt)};
  }

  Status ExpectEndOfStatement() {
    AcceptSymbol(";");
    if (Cur().kind != TokKind::kEnd) {
      return Status::InvalidArgument("unexpected trailing tokens: " +
                                     Cur().text);
    }
    return Status::OK();
  }

  std::vector<Token> toks_;
  const std::string& sql_;  ///< the lexed input (PREPARE bodies stay raw)
  size_t pos_ = 0;
  uint32_t nparams_ = 0;
};

}  // namespace

Result<Statement> Parse(const std::string& sql, uint32_t* nparams) {
  MAMMOTH_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(sql));
  Parser parser(std::move(toks), sql);
  MAMMOTH_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
  if (nparams != nullptr) {
    *nparams = parser.nparams();
  } else if (parser.nparams() > 0) {
    return Status::InvalidArgument(
        "'?' parameters are only allowed in prepared statements");
  }
  return stmt;
}

}  // namespace mammoth::sql
