#ifndef MAMMOTH_SQL_PARSER_H_
#define MAMMOTH_SQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "sql/ast.h"

namespace mammoth::sql {

/// Parses one SQL statement (trailing ';' optional). Supported grammar:
///
///   CREATE TABLE t (col TYPE, ...)
///   INSERT INTO t VALUES (lit, ...) [, (lit, ...)]*
///   DELETE FROM t [WHERE conj]
///   UPDATE t SET col = lit [, col = lit]* [WHERE conj]
///   SELECT item [, item]* FROM t [, t2] [WHERE conj]
///     [GROUP BY col [, col]*] [HAVING label op lit [AND ...]]
///     [ORDER BY label [ASC|DESC] [, ...]] [LIMIT n]
///   CHECKPOINT
///   PREPARE name AS statement    (the statement is kept as raw text)
///   EXECUTE name [(lit [, lit]*)]
///
///   item := * | [t.]col | SUM|MIN|MAX|AVG ([t.]col) | COUNT (* | [t.]col)
///   conj := [t.]col (= | != | < | <= | > | >=) (literal | [t.]col) [AND ...]
///           (column = column terms are equi-join conditions)
///   TYPE := TINYINT|SMALLINT|INT|INTEGER|BIGINT|LONG|DOUBLE|REAL|FLOAT|
///           VARCHAR[(n)]|TEXT|STRING
///
/// Every literal position also accepts `?`, a prepared-statement
/// parameter placeholder (ordinals assigned left to right). When
/// `nparams` is null, a statement containing placeholders is rejected —
/// placeholders are only meaningful under PREPARE; callers preparing a
/// statement pass a non-null `nparams` to receive the placeholder count.
Result<Statement> Parse(const std::string& sql, uint32_t* nparams = nullptr);

}  // namespace mammoth::sql

#endif  // MAMMOTH_SQL_PARSER_H_
