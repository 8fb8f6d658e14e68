#ifndef MAMMOTH_SQL_LEXER_H_
#define MAMMOTH_SQL_LEXER_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace mammoth::sql {

/// Token kinds of the mini-SQL dialect.
enum class TokKind : uint8_t {
  kIdent,    // column / table / keyword (keywords resolved by the parser)
  kInt,      // 123
  kReal,     // 1.5
  kString,   // 'text'
  kSymbol,   // ( ) , ; * = != <> < <= > >= ? .
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // raw text; idents upper-cased separately by parser
  int64_t int_val = 0;
  double real_val = 0;
  size_t pos = 0;     // byte offset in the input (kEnd: the input size)

  bool IsSymbol(const char* s) const {
    return kind == TokKind::kSymbol && text == s;
  }
};

/// Splits `input` into tokens. Errors on unterminated strings and unknown
/// characters.
Result<std::vector<Token>> Lex(const std::string& input);

}  // namespace mammoth::sql

#endif  // MAMMOTH_SQL_LEXER_H_
