#include "mal/interpreter.h"

#include <gtest/gtest.h>

#include "mal/optimizer.h"

namespace mammoth::mal {
namespace {

std::shared_ptr<Catalog> MakeCatalog() {
  auto catalog = std::make_shared<Catalog>();
  auto t = Table::Create("people", {{"name", PhysType::kStr},
                                    {"age", PhysType::kInt32},
                                    {"salary", PhysType::kDouble}});
  EXPECT_TRUE(t.ok());
  const struct {
    const char* name;
    int age;
    double salary;
  } rows[] = {
      {"John Wayne", 1907, 10.0},  {"Roger Moore", 1927, 20.0},
      {"Bob Fosse", 1927, 30.0},   {"Will Smith", 1968, 40.0},
      {"Ada Lovelace", 1815, 50.0},
  };
  for (const auto& r : rows) {
    EXPECT_TRUE((*t)->Insert({Value::Str(r.name), Value::Int(r.age),
                              Value::Real(r.salary)})
                    .ok());
  }
  EXPECT_TRUE(catalog->Register(*t).ok());
  return catalog;
}

TEST(MalProgramTest, RendersReadableListing) {
  Program p;
  const int col = p.Bind("people", "age");
  const int cands = p.BindCandidates("people");
  const int sel = p.ThetaSelect(col, cands, Value::Int(1927), CmpOp::kEq);
  p.Result(sel, "hits");
  const std::string text = p.ToString();
  EXPECT_NE(text.find("sql.bind"), std::string::npos);
  EXPECT_NE(text.find("algebra.thetaselect"), std::string::npos);
  EXPECT_NE(text.find("1927"), std::string::npos);
  EXPECT_NE(text.find("=="), std::string::npos);
}

TEST(MalInterpreterTest, Figure1SelectAge1927) {
  auto catalog = MakeCatalog();
  Program p;
  const int age = p.Bind("people", "age");
  const int cands = p.BindCandidates("people");
  const int sel = p.ThetaSelect(age, cands, Value::Int(1927), CmpOp::kEq);
  const int names = p.Bind("people", "name");
  const int out = p.Project(sel, names);
  p.Result(out, "name");

  Interpreter interp(catalog.get());
  auto r = interp.Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 2u);
  EXPECT_EQ(r->columns[0]->StringAt(0), "Roger Moore");
  EXPECT_EQ(r->columns[0]->StringAt(1), "Bob Fosse");
}

TEST(MalInterpreterTest, GroupAggregate) {
  auto catalog = MakeCatalog();
  Program p;
  const int age = p.Bind("people", "age");
  const int cands = p.BindCandidates("people");
  const int aproj = p.Project(cands, age);
  auto [groups, extents, n] = p.Group(aproj);
  const int sal = p.Bind("people", "salary");
  const int sproj = p.Project(cands, sal);
  const int sums = p.Aggr(OpCode::kAggrSum, sproj, groups, n);
  const int keys = p.Project(extents, aproj);
  p.Result(keys, "age");
  p.Result(sums, "sum");

  Interpreter interp(catalog.get());
  auto r = interp.Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 4u);  // ages 1907, 1927, 1968, 1815
  // Find 1927's sum.
  double sum_1927 = -1;
  for (size_t i = 0; i < r->RowCount(); ++i) {
    if (r->columns[0]->ValueAt<int32_t>(i) == 1927) {
      sum_1927 = r->columns[1]->ValueAt<double>(i);
    }
  }
  EXPECT_DOUBLE_EQ(sum_1927, 50.0);
}

TEST(MalInterpreterTest, CalcAndSort) {
  auto catalog = MakeCatalog();
  Program p;
  const int sal = p.Bind("people", "salary");
  const int cands = p.BindCandidates("people");
  const int sproj = p.Project(cands, sal);
  const int doubled = p.CalcConst(algebra::ArithOp::kMul, sproj,
                                  Value::Real(2.0));
  auto [order, ties] = p.Sort(doubled, /*desc=*/true);
  (void)ties;
  p.Result(p.Project(order, doubled), "x");
  Interpreter interp(catalog.get());
  auto r = interp.Run(p);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->columns[0]->ValueAt<double>(0), 100.0);
  EXPECT_DOUBLE_EQ(r->columns[0]->ValueAt<double>(4), 20.0);
}

TEST(MalInterpreterTest, ErrorsPropagate) {
  auto catalog = MakeCatalog();
  Program p;
  p.Bind("ghosts", "boo");
  Interpreter interp(catalog.get());
  EXPECT_FALSE(interp.Run(p).ok());
}

TEST(MalInterpreterTest, ToTextRenders) {
  auto catalog = MakeCatalog();
  Program p;
  const int names = p.Bind("people", "name");
  const int cands = p.BindCandidates("people");
  p.Result(p.Project(cands, names), "name");
  Interpreter interp(catalog.get());
  auto r = interp.Run(p);
  ASSERT_TRUE(r.ok());
  const std::string text = r->ToText(3);
  EXPECT_NE(text.find("John Wayne"), std::string::npos);
  EXPECT_NE(text.find("(5 rows)"), std::string::npos);
}

// ----------------------------------------------------------- Optimizer --

TEST(OptimizerTest, DeadCodeEliminationDropsUnusedBinds) {
  Program p;
  p.Bind("people", "age");     // dead
  p.Bind("people", "salary");  // dead
  const int names = p.Bind("people", "name");
  const int cands = p.BindCandidates("people");
  p.Result(p.Project(cands, names), "name");
  const size_t before = p.instrs().size();
  const size_t removed = DeadCodeElimination(&p);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(p.instrs().size(), before - 2);
}

TEST(OptimizerTest, CseDeduplicatesBindsAndSelects) {
  Program p;
  const int a1 = p.Bind("people", "age");
  const int a2 = p.Bind("people", "age");  // duplicate
  const int cands = p.BindCandidates("people");
  const int s1 = p.ThetaSelect(a1, cands, Value::Int(1927), CmpOp::kEq);
  const int s2 = p.ThetaSelect(a2, cands, Value::Int(1927), CmpOp::kEq);
  p.Result(s1, "a");
  p.Result(s2, "b");
  const size_t replaced = CommonSubexpressionElimination(&p);
  EXPECT_EQ(replaced, 2u);  // the second bind and the second select
  // Both results now reference the same variable.
  const auto& instrs = p.instrs();
  const Instr& r1 = instrs[instrs.size() - 2];
  const Instr& r2 = instrs[instrs.size() - 1];
  EXPECT_EQ(r1.inputs[0], r2.inputs[0]);
}

TEST(OptimizerTest, SelectFusionMergesRangePairs) {
  Program p;
  const int age = p.Bind("people", "age");
  const int cands = p.BindCandidates("people");
  const int ge = p.ThetaSelect(age, cands, Value::Int(1900), CmpOp::kGe);
  const int le = p.ThetaSelect(age, ge, Value::Int(1930), CmpOp::kLe);
  p.Result(le, "hits");
  const size_t fused = SelectFusion(&p);
  EXPECT_EQ(fused, 1u);
  bool has_range = false;
  for (const Instr& ins : p.instrs()) {
    if (ins.op == OpCode::kRangeSelect) {
      has_range = true;
      EXPECT_EQ(ins.consts[0].AsInt(), 1900);
      EXPECT_EQ(ins.consts[1].AsInt(), 1930);
    }
  }
  EXPECT_TRUE(has_range);
}

TEST(OptimizerTest, FusedPlanGivesSameAnswer) {
  auto catalog = MakeCatalog();
  auto build = [&] {
    Program p;
    const int age = p.Bind("people", "age");
    const int cands = p.BindCandidates("people");
    const int ge = p.ThetaSelect(age, cands, Value::Int(1900), CmpOp::kGe);
    const int le = p.ThetaSelect(age, ge, Value::Int(1930), CmpOp::kLe);
    const int names = p.Bind("people", "name");
    p.Result(p.Project(le, names), "name");
    return p;
  };
  Program plain = build();
  Program optimized = build();
  const PipelineReport report = OptimizePipeline(&optimized);
  EXPECT_GE(report.fused, 1u);
  EXPECT_GE(report.dce, 1u);
  EXPECT_LT(optimized.instrs().size(), plain.instrs().size());

  Interpreter interp(catalog.get());
  auto r1 = interp.Run(plain);
  auto r2 = interp.Run(optimized);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->RowCount(), r2->RowCount());
  for (size_t i = 0; i < r1->RowCount(); ++i) {
    EXPECT_EQ(r1->columns[0]->StringAt(i), r2->columns[0]->StringAt(i));
  }
}

TEST(OptimizerTest, PipelineReachesFixpoint) {
  Program p;
  const int names = p.Bind("people", "name");
  const int cands = p.BindCandidates("people");
  p.Result(p.Project(cands, names), "name");
  const PipelineReport report = OptimizePipeline(&p);
  EXPECT_LE(report.rounds, 2u);
  EXPECT_FALSE(report.ToString().empty());
}

}  // namespace
}  // namespace mammoth::mal
