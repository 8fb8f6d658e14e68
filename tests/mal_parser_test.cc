#include "mal/parser.h"

#include <gtest/gtest.h>

#include "mal/interpreter.h"

namespace mammoth::mal {
namespace {

Program SampleProgram() {
  Program p;
  const int age = p.Bind("people", "age");
  const int cands = p.BindCandidates("people");
  const int sel = p.ThetaSelect(age, cands, Value::Int(1927), CmpOp::kGe);
  const int range =
      p.RangeSelect(age, sel, Value::Int(0), Value::Int(2000), true);
  const int salary = p.Bind("people", "salary");
  const int proj = p.Project(range, salary);
  const int scaled = p.CalcConst(algebra::ArithOp::kMul, proj,
                                 Value::Real(1.5));
  auto [groups, extents, n] = p.Group(proj);
  const int sum = p.Aggr(OpCode::kAggrSum, scaled, groups, n);
  const int key = p.Project(extents, proj);
  auto [order, ties] = p.Sort(sum, /*desc=*/true);
  auto [refined, refined_ties] = p.Sort(key, false, order, ties);
  const int first = p.Slice(refined, 0, 3);
  const int top = p.TopN(sum, 3);
  const int uniq = p.Distinct(proj);
  (void)refined_ties;
  (void)top;
  (void)uniq;
  p.Result(p.Project(first, sum), "x");
  return p;
}

void ExpectStructurallyEqual(const Program& a, const Program& b) {
  ASSERT_EQ(a.instrs().size(), b.instrs().size());
  for (size_t i = 0; i < a.instrs().size(); ++i) {
    const Instr& x = a.instrs()[i];
    const Instr& y = b.instrs()[i];
    EXPECT_EQ(x.op, y.op) << "instr " << i;
    EXPECT_EQ(x.outputs, y.outputs) << "instr " << i;
    EXPECT_EQ(x.inputs, y.inputs) << "instr " << i;
    EXPECT_EQ(x.cmp, y.cmp) << "instr " << i;
    EXPECT_EQ(x.arith, y.arith) << "instr " << i;
    EXPECT_EQ(x.flag, y.flag) << "instr " << i;
    EXPECT_EQ(x.table, y.table) << "instr " << i;
    EXPECT_EQ(x.column, y.column) << "instr " << i;
    ASSERT_EQ(x.consts.size(), y.consts.size()) << "instr " << i;
    for (size_t c = 0; c < x.consts.size(); ++c) {
      EXPECT_EQ(x.consts[c].ToString(), y.consts[c].ToString())
          << "instr " << i << " const " << c;
    }
  }
}

TEST(MalParserTest, RoundTripsEveryOpcode) {
  const Program p = SampleProgram();
  auto parsed = ParseMal(p.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectStructurallyEqual(p, *parsed);
  // And the round trip is a fixpoint.
  EXPECT_EQ(p.ToString(), parsed->ToString());
}

TEST(MalParserTest, ParsedProgramExecutes) {
  auto catalog = std::make_shared<Catalog>();
  auto t = Table::Create("people", {{"age", PhysType::kInt32},
                                    {"salary", PhysType::kDouble}});
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*t)->Insert({Value::Int(1900 + i), Value::Real(i * 1.0)}).ok());
  }
  ASSERT_TRUE(catalog->Register(*t).ok());

  const std::string text =
      "(v0) := sql.bind(\"people\", \"age\");\n"
      "(v1) := sql.tid(\"people\");\n"
      "(v2) := algebra.thetaselect(v0, v1, 1950, >=);\n"
      "(v3) := sql.bind(\"people\", \"salary\");\n"
      "(v4) := algebra.projection(v2, v3);\n"
      "(v5) := aggr.sum(v4, nil, nil);\n"
      "sql.resultSet(\"total\", v5);\n";
  auto prog = ParseMal(text);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Interpreter interp(catalog.get());
  auto r = interp.Run(*prog);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Ages 1950..1999 have salaries 50..99: sum = (50+99)*50/2.
  EXPECT_DOUBLE_EQ(r->columns[0]->ValueAt<double>(0), 3725.0);
}

TEST(MalParserTest, ParsedSortChainAndSliceExecute) {
  auto catalog = std::make_shared<Catalog>();
  auto t = Table::Create("t", {{"a", PhysType::kInt32},
                               {"b", PhysType::kInt32}});
  ASSERT_TRUE(t.ok());
  // (a, b): a ties in pairs, b breaks them descending.
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{
           {2, 1}, {1, 5}, {2, 7}, {1, 3}, {3, 0}}) {
    ASSERT_TRUE((*t)->Insert({Value::Int(a), Value::Int(b)}).ok());
  }
  ASSERT_TRUE(catalog->Register(*t).ok());

  const std::string text =
      "(v0) := sql.tid(\"t\");\n"
      "(v1) := sql.bind(\"t\", \"a\");\n"
      "(v2) := sql.bind(\"t\", \"b\");\n"
      "(v3) := algebra.projection(v0, v1);\n"
      "(v4) := algebra.projection(v0, v2);\n"
      "(v5, v6) := algebra.sort(v3, nil, nil);\n"
      "(v7, v8) := algebra.sort(v4, v5, v6, desc);\n"
      "(v9) := algebra.slice(v7, 1, 4);\n"
      "(v10) := algebra.projection(v9, v4);\n"
      "sql.resultSet(\"b\", v10);\n";
  auto prog = ParseMal(text);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(prog->ToString(), ParseMal(prog->ToString())->ToString());
  Interpreter interp(catalog.get());
  auto r = interp.Run(*prog);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Order by a, b DESC: (1,5) (1,3) (2,7) (2,1) (3,0); rows [1, 4).
  ASSERT_EQ(r->RowCount(), 3u);
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(0), 3);
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(1), 7);
  EXPECT_EQ(r->columns[0]->ValueAt<int32_t>(2), 1);

  // The slice clamps at the row count, and a wrong arity is refused.
  EXPECT_TRUE(ParseMal("(v0) := sql.tid(\"t\");\n"
                       "(v1) := algebra.slice(v0, 0, 99);\n")
                  .ok());
  EXPECT_FALSE(ParseMal("(v0) := sql.tid(\"t\");\n"
                        "(v1) := algebra.slice(v0, 2);\n")
                   .ok());
  EXPECT_FALSE(ParseMal("(v0) := sql.tid(\"t\");\n"
                        "(v1, v2) := algebra.sort(v0);\n")
                   .ok());
}

TEST(MalParserTest, WhitespaceAndEmptyLinesTolerated) {
  auto p = ParseMal("\n\n  (v0) := sql.tid(\"t\");\n\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->instrs().size(), 1u);
  EXPECT_EQ(p->nvars(), 1);
}

TEST(MalParserTest, RejectsSsaViolations) {
  EXPECT_FALSE(ParseMal("(v0) := sql.tid(\"t\");\n"
                        "(v0) := sql.tid(\"t\");\n")
                   .ok());
  EXPECT_FALSE(
      ParseMal("(v1) := algebra.projection(v0, v0);\n").ok());  // undefined
}

TEST(MalParserTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseMal("(v0) := nosuch.op(\"t\");").ok());
  EXPECT_FALSE(ParseMal("(v0) := sql.tid(\"t\")").ok());  // missing ';'
  EXPECT_FALSE(ParseMal("(v0) := sql.tid(\"unterminated);").ok());
  EXPECT_FALSE(ParseMal("(v0) := sql.tid();").ok());  // wrong arity
  EXPECT_FALSE(
      ParseMal("(v0, v1) := sql.tid(\"t\");").ok());  // wrong output count
  EXPECT_FALSE(ParseMal("(v0) := algebra.thetaselect(v9, nil, 5, ==);")
                   .ok());  // undefined input
}

TEST(MalParserTest, FlagsRoundTrip) {
  Program p;
  const int age = p.Bind("t", "a");
  const int cands = p.BindCandidates("t");
  p.RangeSelect(age, cands, Value::Int(1), Value::Int(2), /*anti=*/true);
  auto [order, ties] = p.Sort(age, /*desc=*/true);
  (void)order;
  (void)ties;
  const std::string text = p.ToString();
  EXPECT_NE(text.find("anti"), std::string::npos);
  EXPECT_NE(text.find("desc"), std::string::npos);
  auto parsed = ParseMal(text);
  ASSERT_TRUE(parsed.ok());
  ExpectStructurallyEqual(p, *parsed);
}

}  // namespace
}  // namespace mammoth::mal
