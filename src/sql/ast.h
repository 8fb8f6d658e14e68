#ifndef MAMMOTH_SQL_AST_H_
#define MAMMOTH_SQL_AST_H_

#include <string>
#include <variant>
#include <vector>

#include "core/table.h"
#include "core/value.h"

namespace mammoth::sql {

/// Aggregate functions of the SELECT list.
enum class AggFn : uint8_t { kNone, kSum, kCount, kMin, kMax, kAvg };

/// A possibly table-qualified column reference ("t.col" or "col").
struct ColumnRef {
  std::string table;  // empty = unqualified
  std::string column;

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
  bool empty() const { return column.empty(); }
};

/// One SELECT-list item: a bare column, AGG(column), or COUNT(*).
struct SelectItem {
  AggFn agg = AggFn::kNone;
  ColumnRef column;   // empty column for COUNT(*)
  bool star = false;  // SELECT * (expands to all columns)
  std::string Label() const;
};

/// A conjunctive WHERE term: either `column op literal` or, when
/// `is_join`, the equi-join condition `column = rhs_column`.
struct Predicate {
  ColumnRef column;
  CmpOp op = CmpOp::kEq;
  Value literal;
  bool is_join = false;
  ColumnRef rhs_column;
};

/// A HAVING term: select-list label (e.g. "sum(v)") op literal.
struct HavingPred {
  std::string label;
  CmpOp op = CmpOp::kEq;
  Value literal;
};

/// One ORDER BY key: a select-list label plus direction.
struct OrderKey {
  std::string label;
  bool desc = false;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::vector<std::string> tables;  // one or two (comma join)
  std::vector<Predicate> where;     // ANDed
  std::vector<ColumnRef> group_by;
  std::vector<HavingPred> having;   // ANDed, post-aggregation
  std::vector<OrderKey> order_by;   // lexicographic, leftmost major
  int64_t limit = -1;  // -1 = none
};

struct CreateStmt {
  std::string table;
  std::vector<ColumnDef> columns;
  bool compressed = false;  // CREATE TABLE ... COMPRESSED
};

/// ALTER TABLE t COMPRESS | DECOMPRESS: toggles the table's compression
/// policy and converts eligible int columns in place.
struct AlterStmt {
  std::string table;
  bool compress = false;
};

struct InsertStmt {
  std::string table;
  std::vector<std::vector<Value>> rows;
};

struct DeleteStmt {
  std::string table;
  std::vector<Predicate> where;  // empty = delete all
};

/// UPDATE t SET col = literal [, ...] [WHERE ...]. Updates are executed the
/// MonetDB way: qualifying rows are deleted and re-inserted with the new
/// values through the delta machinery (row OIDs are not stable).
struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, Value>> sets;
  std::vector<Predicate> where;
};

/// BEGIN [TRANSACTION|WORK]: opens an explicit multi-statement
/// transaction on the executing session.
struct BeginStmt {};

/// COMMIT [TRANSACTION|WORK]: makes the open transaction's writes visible
/// and durable (one group-commit WAL batch).
struct CommitStmt {};

/// ROLLBACK [TRANSACTION|WORK]: discards the open transaction's writes.
struct RollbackStmt {};

/// CHECKPOINT: folds the WAL into a fresh snapshot of the catalog.
struct CheckpointStmt {};

/// PREPARE name AS <statement>: caches `body`, kept as the raw text after
/// AS (it is parsed on its own, `?` placeholders allowed), under `name`.
struct PrepareStmt {
  std::string name;
  std::string body;
};

/// EXECUTE name [(lit, ...)]: runs a named prepared statement.
struct ExecuteStmt {
  std::string name;
  std::vector<Value> params;
};

using Statement =
    std::variant<SelectStmt, CreateStmt, InsertStmt, DeleteStmt, UpdateStmt,
                 AlterStmt, BeginStmt, CommitStmt, RollbackStmt,
                 CheckpointStmt, PrepareStmt, ExecuteStmt>;

}  // namespace mammoth::sql

#endif  // MAMMOTH_SQL_AST_H_
