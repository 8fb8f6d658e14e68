#include "sql/lexer.h"

#include <cctype>

namespace mammoth::sql {

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;  // line comment
      continue;
    }
    Token t;
    t.pos = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(input[j])) ||
                       input[j] == '_')) {
        ++j;
      }
      t.kind = TokKind::kIdent;
      t.text = input.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t j = i + 1;
      bool real = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(input[j])) ||
                       input[j] == '.')) {
        if (input[j] == '.') real = true;
        ++j;
      }
      t.text = input.substr(i, j - i);
      if (real) {
        t.kind = TokKind::kReal;
        t.real_val = std::stod(t.text);
      } else {
        t.kind = TokKind::kInt;
        t.int_val = std::stoll(t.text);
      }
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      std::string s;
      while (j < n && input[j] != '\'') s.push_back(input[j++]);
      if (j >= n) return Status::InvalidArgument("unterminated string");
      t.kind = TokKind::kString;
      t.text = s;
      i = j + 1;
    } else {
      t.kind = TokKind::kSymbol;
      // Two-character operators first.
      if (i + 1 < n) {
        const std::string two = input.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "!=" || two == "<>") {
          t.text = two == "<>" ? "!=" : two;
          out.push_back(t);
          i += 2;
          continue;
        }
      }
      switch (c) {
        case '(':
        case ')':
        case ',':
        case ';':
        case '*':
        case '=':
        case '<':
        case '>':
        case '.':
        case '?':  // prepared-statement parameter placeholder
          t.text = std::string(1, c);
          break;
        default:
          return Status::InvalidArgument(std::string("unexpected char '") +
                                         c + "'");
      }
      ++i;
    }
    out.push_back(std::move(t));
  }
  Token end;  // kEnd
  end.pos = n;
  out.push_back(std::move(end));
  return out;
}

}  // namespace mammoth::sql
