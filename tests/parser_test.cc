// Unit tests for the tolerant kernel-C parser.

#include <gtest/gtest.h>

#include <string>

#include "src/ast/ast.h"
#include "src/ast/parser.h"
#include "src/support/governor.h"
#include "src/support/source.h"

namespace refscan {
namespace {

TranslationUnit Parse(std::string text) {
  SourceFile file("t.c", std::move(text));
  return ParseFile(file);
}

TEST(ParserTest, SimpleFunction) {
  const auto unit = Parse(
      "static int foo(int a, char *b)\n"
      "{\n"
      "  return a;\n"
      "}\n");
  ASSERT_EQ(unit.functions.size(), 1u);
  const FunctionDef& fn = unit.functions[0];
  EXPECT_EQ(fn.name, "foo");
  EXPECT_TRUE(fn.is_static);
  EXPECT_EQ(fn.return_type, "int");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].name, "a");
  EXPECT_EQ(fn.params[0].type, "int");
  EXPECT_EQ(fn.params[1].name, "b");
  ASSERT_NE(fn.body, nullptr);
  ASSERT_EQ(fn.body->stmts.size(), 1u);
  EXPECT_EQ(fn.body->stmts[0]->kind, Stmt::Kind::kReturn);
}

TEST(ParserTest, VoidParamListIsEmpty) {
  const auto unit = Parse("int f(void) { return 0; }");
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_TRUE(unit.functions[0].params.empty());
}

TEST(ParserTest, PointerReturnType) {
  const auto unit = Parse("struct device_node *of_find_node(const char *path) { return 0; }");
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_EQ(unit.functions[0].name, "of_find_node");
  EXPECT_EQ(unit.functions[0].return_type, "struct device_node*");
}

TEST(ParserTest, StructDefinitionFields) {
  const auto unit = Parse(
      "struct nvmem_device {\n"
      "  struct device dev;\n"
      "  struct kref refcnt;\n"
      "  int users;\n"
      "  int (*reg_read)(void *ctx);\n"
      "};\n");
  ASSERT_EQ(unit.structs.size(), 1u);
  const StructDef& s = unit.structs[0];
  EXPECT_EQ(s.name, "nvmem_device");
  ASSERT_EQ(s.fields.size(), 4u);
  EXPECT_EQ(s.fields[0].type, "struct device");
  EXPECT_EQ(s.fields[0].name, "dev");
  EXPECT_EQ(s.fields[1].type, "struct kref");
  EXPECT_EQ(s.fields[1].name, "refcnt");
  EXPECT_EQ(s.fields[2].name, "users");
  EXPECT_EQ(s.fields[3].type, "fnptr");
  EXPECT_EQ(s.fields[3].name, "reg_read");
}

TEST(ParserTest, GlobalOpsStructDesignatedInit) {
  const auto unit = Parse(
      "static struct platform_driver brcmstb_driver = {\n"
      "  .probe = brcmstb_pm_probe,\n"
      "  .remove = brcmstb_pm_remove,\n"
      "  .driver = { .name = \"brcmstb\" },\n"
      "};\n");
  ASSERT_EQ(unit.globals.size(), 1u);
  const GlobalVar& g = unit.globals[0];
  EXPECT_EQ(g.name, "brcmstb_driver");
  EXPECT_EQ(g.type, "struct platform_driver");
  ASSERT_GE(g.inits.size(), 2u);
  EXPECT_EQ(g.inits[0].field, "probe");
  EXPECT_EQ(g.inits[0].value, "brcmstb_pm_probe");
  EXPECT_EQ(g.inits[1].field, "remove");
  EXPECT_EQ(g.inits[1].value, "brcmstb_pm_remove");
}

TEST(ParserTest, MacroDefinitionCaptured) {
  const auto unit = Parse(
      "#define for_each_matching_node(dn, m) \\\n"
      "  for (dn = of_find_matching_node(NULL, m); dn; dn = of_find_matching_node(dn, m))\n");
  ASSERT_EQ(unit.macros.size(), 1u);
  const MacroDef& m = unit.macros[0];
  EXPECT_EQ(m.name, "for_each_matching_node");
  ASSERT_EQ(m.params.size(), 2u);
  EXPECT_EQ(m.params[0], "dn");
  EXPECT_EQ(m.params[1], "m");
  EXPECT_NE(m.body.find("of_find_matching_node"), std::string::npos);
}

TEST(ParserTest, ObjectLikeMacro) {
  const auto unit = Parse("#define MAX_NODES 128\n");
  ASSERT_EQ(unit.macros.size(), 1u);
  EXPECT_EQ(unit.macros[0].name, "MAX_NODES");
  EXPECT_TRUE(unit.macros[0].params.empty());
  EXPECT_EQ(unit.macros[0].body, "128");
}

TEST(ParserTest, IfElseChain) {
  const auto unit = Parse(
      "void f(int x) {\n"
      "  if (x < 0)\n"
      "    g();\n"
      "  else if (x == 0) {\n"
      "    h();\n"
      "  } else\n"
      "    k();\n"
      "}\n");
  ASSERT_EQ(unit.functions.size(), 1u);
  const Stmt& body = *unit.functions[0].body;
  ASSERT_EQ(body.stmts.size(), 1u);
  const Stmt& if_stmt = *body.stmts[0];
  EXPECT_EQ(if_stmt.kind, Stmt::Kind::kIf);
  ASSERT_NE(if_stmt.else_body, nullptr);
  EXPECT_EQ(if_stmt.else_body->kind, Stmt::Kind::kIf);
}

TEST(ParserTest, GotoAndLabels) {
  const auto unit = Parse(
      "int f(void) {\n"
      "  if (bad)\n"
      "    goto err_out;\n"
      "  return 0;\n"
      "err_out:\n"
      "  cleanup();\n"
      "  return -1;\n"
      "}\n");
  const Stmt& body = *unit.functions[0].body;
  int gotos = 0;
  int labels = 0;
  ForEachStmt(body, [&](const Stmt& s) {
    if (s.kind == Stmt::Kind::kGoto) {
      ++gotos;
      EXPECT_EQ(s.name, "err_out");
    }
    if (s.kind == Stmt::Kind::kLabel) {
      ++labels;
      EXPECT_EQ(s.name, "err_out");
    }
  });
  EXPECT_EQ(gotos, 1);
  EXPECT_EQ(labels, 1);
}

TEST(ParserTest, ForLoop) {
  const auto unit = Parse("void f(void) { for (i = 0; i < n; i++) body(i); }");
  const Stmt& loop = *unit.functions[0].body->stmts[0];
  EXPECT_EQ(loop.kind, Stmt::Kind::kFor);
  ASSERT_NE(loop.init, nullptr);
  ASSERT_NE(loop.expr, nullptr);
  ASSERT_NE(loop.incr, nullptr);
  ASSERT_NE(loop.body, nullptr);
}

TEST(ParserTest, ForLoopWithDeclInit) {
  const auto unit = Parse("void f(void) { for (int i = 0; i < n; i++) body(i); }");
  const Stmt& loop = *unit.functions[0].body->stmts[0];
  EXPECT_EQ(loop.kind, Stmt::Kind::kFor);
  ASSERT_NE(loop.init, nullptr);
  EXPECT_EQ(loop.init->kind, Expr::Kind::kAssign);
}

TEST(ParserTest, WhileAndDoWhile) {
  const auto unit = Parse(
      "void f(void) {\n"
      "  while (cond()) step();\n"
      "  do { step(); } while (again);\n"
      "}\n");
  const auto& stmts = unit.functions[0].body->stmts;
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(stmts[0]->kind, Stmt::Kind::kWhile);
  EXPECT_EQ(stmts[1]->kind, Stmt::Kind::kDoWhile);
}

TEST(ParserTest, SwitchCases) {
  const auto unit = Parse(
      "void f(int x) {\n"
      "  switch (x) {\n"
      "  case 1:\n"
      "    a();\n"
      "    break;\n"
      "  default:\n"
      "    b();\n"
      "  }\n"
      "}\n");
  int cases = 0;
  int defaults = 0;
  ForEachStmt(*unit.functions[0].body, [&](const Stmt& s) {
    cases += s.kind == Stmt::Kind::kCase ? 1 : 0;
    defaults += s.kind == Stmt::Kind::kDefault ? 1 : 0;
  });
  EXPECT_EQ(cases, 1);
  EXPECT_EQ(defaults, 1);
}

TEST(ParserTest, MacroLoopWithBracedBody) {
  const auto unit = Parse(
      "void f(void) {\n"
      "  for_each_child_of_node(parent, child) {\n"
      "    use(child);\n"
      "    if (match(child))\n"
      "      break;\n"
      "  }\n"
      "}\n");
  const Stmt& loop = *unit.functions[0].body->stmts[0];
  ASSERT_EQ(loop.kind, Stmt::Kind::kMacroLoop);
  ASSERT_NE(loop.expr, nullptr);
  EXPECT_EQ(loop.expr->CalleeName(), "for_each_child_of_node");
  ASSERT_NE(loop.body, nullptr);
  EXPECT_EQ(loop.body->kind, Stmt::Kind::kCompound);
}

TEST(ParserTest, MacroLoopWithSingleStatementBody) {
  const auto unit = Parse("void f(void) { for_each_node_by_name(np, \"cpu\") count++; }");
  const Stmt& loop = *unit.functions[0].body->stmts[0];
  ASSERT_EQ(loop.kind, Stmt::Kind::kMacroLoop);
  ASSERT_NE(loop.body, nullptr);
  EXPECT_EQ(loop.body->kind, Stmt::Kind::kExpr);
}

TEST(ParserTest, CallStatementFollowedByBraceIsMacroLoop) {
  const auto unit = Parse("void f(void) { list_for_each_entry(evt, head, node) { use(evt); } }");
  const Stmt& loop = *unit.functions[0].body->stmts[0];
  EXPECT_EQ(loop.kind, Stmt::Kind::kMacroLoop);
}

TEST(ParserTest, PlainCallIsExprStatement) {
  const auto unit = Parse("void f(void) { of_node_put(np); }");
  const Stmt& s = *unit.functions[0].body->stmts[0];
  ASSERT_EQ(s.kind, Stmt::Kind::kExpr);
  EXPECT_EQ(s.expr->CalleeName(), "of_node_put");
}

TEST(ParserTest, Declarations) {
  const auto unit = Parse(
      "void f(void) {\n"
      "  int ret = 0;\n"
      "  struct device_node *np;\n"
      "  u32 value;\n"
      "  struct nvmem_device *dev = bus_find_device(bus, NULL, data, match);\n"
      "}\n");
  const auto& stmts = unit.functions[0].body->stmts;
  ASSERT_EQ(stmts.size(), 4u);
  EXPECT_EQ(stmts[0]->kind, Stmt::Kind::kDecl);
  EXPECT_EQ(stmts[0]->name, "ret");
  EXPECT_EQ(stmts[0]->type, "int");
  ASSERT_NE(stmts[0]->expr, nullptr);
  EXPECT_EQ(stmts[1]->kind, Stmt::Kind::kDecl);
  EXPECT_EQ(stmts[1]->name, "np");
  EXPECT_EQ(stmts[2]->kind, Stmt::Kind::kDecl);
  EXPECT_EQ(stmts[2]->name, "value");
  EXPECT_EQ(stmts[3]->kind, Stmt::Kind::kDecl);
  ASSERT_NE(stmts[3]->expr, nullptr);
  EXPECT_EQ(stmts[3]->expr->CalleeName(), "bus_find_device");
}

TEST(ParserTest, MultiDeclarator) {
  const auto unit = Parse("void f(void) { int a = 1, b = 2; }");
  const Stmt& s = *unit.functions[0].body->stmts[0];
  ASSERT_EQ(s.kind, Stmt::Kind::kCompound);
  ASSERT_EQ(s.stmts.size(), 2u);
  EXPECT_EQ(s.stmts[0]->name, "a");
  EXPECT_EQ(s.stmts[1]->name, "b");
}

TEST(ParserExprTest, MemberChains) {
  const auto expr = ParseExpression("pdev->dev.of_node");
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->kind, Expr::Kind::kMember);
  EXPECT_EQ(expr->value, "of_node");
  EXPECT_FALSE(expr->arrow);
  ASSERT_EQ(expr->args.size(), 1u);
  EXPECT_EQ(expr->args[0]->kind, Expr::Kind::kMember);
  EXPECT_TRUE(expr->args[0]->arrow);
  EXPECT_EQ(expr->args[0]->value, "dev");
}

TEST(ParserExprTest, CallWithArgs) {
  const auto expr = ParseExpression("of_find_matching_node(from, matches)");
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->CalleeName(), "of_find_matching_node");
  EXPECT_EQ(expr->args.size(), 3u);  // callee + 2 args
}

TEST(ParserExprTest, PrecedenceAndToString) {
  const auto expr = ParseExpression("a + b * c");
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->ToString(), "a + b * c");
  EXPECT_EQ(expr->value, "+");
  EXPECT_EQ(expr->args[1]->value, "*");
}

TEST(ParserExprTest, AssignmentIsRightAssociative) {
  const auto expr = ParseExpression("a = b = c");
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->kind, Expr::Kind::kAssign);
  EXPECT_EQ(expr->args[1]->kind, Expr::Kind::kAssign);
}

TEST(ParserExprTest, UnaryDerefAndNot) {
  const auto expr = ParseExpression("!*ptr");
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->kind, Expr::Kind::kUnary);
  EXPECT_EQ(expr->value, "!");
  EXPECT_EQ(expr->args[0]->value, "*");
}

TEST(ParserExprTest, Ternary) {
  const auto expr = ParseExpression("x ? y : z");
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->kind, Expr::Kind::kTernary);
  EXPECT_EQ(expr->args.size(), 3u);
}

TEST(ParserExprTest, CastOfPointer) {
  const auto expr = ParseExpression("(struct device *)data");
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->kind, Expr::Kind::kCast);
  ASSERT_EQ(expr->args.size(), 1u);
  EXPECT_EQ(expr->args[0]->value, "data");
}

TEST(ParserTest, ErrorRecoverySkipsGarbageStatement) {
  const auto unit = Parse(
      "void f(void) {\n"
      "  int ok1 = 1;\n"
      "  @@ ??? garbage $$$;\n"
      "  int ok2 = 2;\n"
      "}\n");
  ASSERT_EQ(unit.functions.size(), 1u);
  const auto& stmts = unit.functions[0].body->stmts;
  bool found_ok2 = false;
  for (const auto& s : stmts) {
    if (s->kind == Stmt::Kind::kDecl && s->name == "ok2") {
      found_ok2 = true;
    }
  }
  EXPECT_TRUE(found_ok2);
}

// ---- GNU extensions real kernel C is full of (DESIGN.md §5.15) ----------

TEST(ParserTest, AttributeSoupOnFunctionAndStruct) {
  const auto unit = Parse(
      "struct __attribute__((aligned(8))) dev_state {\n"
      "  int refs;\n"
      "};\n"
      "__attribute__((cold)) static int probe(void) __attribute__((section(\".init\")))\n"
      "{\n"
      "  return 0;\n"
      "}\n");
  ASSERT_EQ(unit.structs.size(), 1u);
  EXPECT_EQ(unit.structs[0].name, "dev_state");
  ASSERT_EQ(unit.structs[0].fields.size(), 1u);
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_EQ(unit.functions[0].name, "probe");
  EXPECT_TRUE(unit.degraded.empty());
}

TEST(ParserTest, StatementExpressionKeepsCallsVisible) {
  // `({ ... })` flattens to a comma chain so calls inside stay reachable
  // by ForEachExpr — the checkers must see the of_node_get().
  const auto unit = Parse(
      "void f(struct device_node *np) {\n"
      "  int v = ({ int __t = of_node_get(np) ? 1 : 0; __t + 1; });\n"
      "  use(v);\n"
      "}\n");
  ASSERT_EQ(unit.functions.size(), 1u);
  bool saw_get = false;
  ForEachExpr(*unit.functions[0].body, [&](const Expr& x) {
    saw_get |= x.IsCall() && x.CalleeName() == "of_node_get";
  });
  EXPECT_TRUE(saw_get);
  EXPECT_TRUE(unit.degraded.empty());
}

TEST(ParserTest, InlineAsmCollapsesToEmptyStatement) {
  const auto unit = Parse(
      "void barrier_heavy(void) {\n"
      "  __asm__ volatile(\"mfence\" ::: \"memory\");\n"
      "  asm volatile(\"nop\");\n"
      "  asm(\"\");\n"
      "  done();\n"
      "}\n");
  ASSERT_EQ(unit.functions.size(), 1u);
  const auto& stmts = unit.functions[0].body->stmts;
  ASSERT_EQ(stmts.size(), 4u);
  EXPECT_EQ(stmts[0]->kind, Stmt::Kind::kEmpty);
  EXPECT_EQ(stmts[1]->kind, Stmt::Kind::kEmpty);
  EXPECT_EQ(stmts[2]->kind, Stmt::Kind::kEmpty);
  EXPECT_EQ(stmts[3]->kind, Stmt::Kind::kExpr);
  EXPECT_TRUE(unit.degraded.empty());
}

TEST(ParserTest, TypeofDeclarationsParse) {
  const auto unit = Parse(
      "void f(int base) {\n"
      "  typeof(base) copy = base;\n"
      "  __typeof__(base) other = copy + 1;\n"
      "  use(copy, other);\n"
      "}\n");
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_EQ(unit.functions[0].body->stmts.size(), 3u);
  EXPECT_TRUE(unit.degraded.empty());
}

// ---- function-granular quarantine (DESIGN.md §5.15) ---------------------

TEST(ParserTest, UnparseableBodyQuarantinesOnlyThatFunction) {
  const auto unit = Parse(
      "int good_before(void) { return 1; }\n"
      "int hopeless(void) {\n"
      "  @@ 1$ !! 2?? ;\n"
      "  @@ 3$ !! 4?? ;\n"
      "  @@ 5$ !! 6?? ;\n"
      "  @@ 7$ !! 8?? ;\n"
      "}\n"
      "int good_after(void) { return 2; }\n");
  ASSERT_EQ(unit.functions.size(), 2u);
  EXPECT_EQ(unit.functions[0].name, "good_before");
  EXPECT_EQ(unit.functions[1].name, "good_after");
  ASSERT_EQ(unit.degraded.size(), 1u);
  EXPECT_EQ(unit.degraded[0].name, "hopeless");
  EXPECT_EQ(unit.degraded[0].line, 2u);
  EXPECT_FALSE(unit.degraded[0].what.empty());
}

TEST(ParserTest, QuarantineMatchesDeletingTheFunction) {
  // The recovery contract: siblings of a quarantined function parse exactly
  // as if the bad function had been deleted from the source.
  const std::string good_part =
      "static int balanced(struct device_node *np) {\n"
      "  struct device_node *child = of_get_child_by_name(np, \"x\");\n"
      "  if (!child)\n"
      "    return -1;\n"
      "  of_node_put(child);\n"
      "  return 0;\n"
      "}\n";
  const std::string bad_fn =
      "int mangled(void) {\n"
      "  @@ ?? $$ ;\n"
      "  @@ ?? $$ ;\n"
      "  @@ ?? $$ ;\n"
      "  @@ ?? $$ ;\n"
      "}\n";
  const auto with_bad = Parse(good_part + bad_fn);
  const auto without_bad = Parse(good_part);
  ASSERT_EQ(with_bad.functions.size(), without_bad.functions.size());
  ASSERT_EQ(with_bad.functions.size(), 1u);
  EXPECT_EQ(with_bad.functions[0].name, "balanced");
  EXPECT_EQ(with_bad.functions[0].body->stmts.size(),
            without_bad.functions[0].body->stmts.size());
  ASSERT_EQ(with_bad.degraded.size(), 1u);
  EXPECT_EQ(with_bad.degraded[0].name, "mangled");
  EXPECT_TRUE(without_bad.degraded.empty());
}

TEST(ParserTest, RecoveryBudgetToleratesAFewBadStatements) {
  // A couple of recovery events is routine tolerant parsing, not grounds
  // for quarantine — the budget only trips on genuinely unparseable soup.
  const auto unit = Parse(
      "int mostly_fine(void) {\n"
      "  int a = 1;\n"
      "  @@ one bad statement $$;\n"
      "  int b = 2;\n"
      "  return a + b;\n"
      "}\n");
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_EQ(unit.functions[0].name, "mostly_fine");
  EXPECT_TRUE(unit.degraded.empty());
}

TEST(ParserTest, ForwardDeclarationIgnored) {
  const auto unit = Parse("int foo(int a);\nint bar(void) { return 1; }");
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_EQ(unit.functions[0].name, "bar");
}

TEST(ParserTest, TypedefSkipped) {
  const auto unit = Parse("typedef struct { int x; } pair_t;\nint f(void) { return 0; }");
  EXPECT_EQ(unit.functions.size(), 1u);
}

TEST(ParserTest, FindFunction) {
  const auto unit = Parse("void a(void) {}\nvoid b(void) {}");
  EXPECT_NE(unit.FindFunction("a"), nullptr);
  EXPECT_NE(unit.FindFunction("b"), nullptr);
  EXPECT_EQ(unit.FindFunction("c"), nullptr);
}

TEST(ParserTest, ParseSnippetWrapsBody) {
  const auto unit = ParseSnippet("int x = 1;\nuse(x);");
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_EQ(unit.functions[0].name, "snippet");
  EXPECT_EQ(unit.functions[0].body->stmts.size(), 2u);
}

TEST(ParserTest, LinesRecordedOnStatements) {
  const auto unit = Parse(
      "void f(void)\n"   // 1
      "{\n"              // 2
      "  a();\n"         // 3
      "  b();\n"         // 4
      "}\n");
  const auto& stmts = unit.functions[0].body->stmts;
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(stmts[0]->line, 3u);
  EXPECT_EQ(stmts[1]->line, 4u);
}

// Property sweep: the parser terminates and never crashes on mutated inputs.
class ParserRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustnessTest, NeverCrashesOnMutatedSource) {
  const std::string base =
      "static int stm32_crc_remove(struct platform_device *pdev)\n"
      "{\n"
      "  struct stm32_crc *crc = platform_get_drvdata(pdev);\n"
      "  int ret = pm_runtime_get_sync(crc->dev);\n"
      "  if (ret < 0)\n"
      "    return ret;\n"
      "  for_each_child_of_node(np, child) {\n"
      "    if (of_device_is_compatible(child, \"x\"))\n"
      "      break;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  // Deterministic mutation: delete, duplicate or replace bytes.
  std::string text = base;
  uint64_t seed = GetParam();
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };
  for (int i = 0; i < 20 && !text.empty(); ++i) {
    const size_t pos = next() % text.size();
    switch (next() % 3) {
      case 0:
        text.erase(pos, 1);
        break;
      case 1:
        text.insert(pos, 1, static_cast<char>("{}();*&"[next() % 7]));
        break;
      default:
        text[pos] = static_cast<char>(32 + next() % 90);
        break;
    }
  }
  SourceFile file("m.c", text);
  const TranslationUnit unit = ParseFile(file);
  (void)unit;  // reaching here without crash/hang is the property
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest,
                         ::testing::Range<uint64_t>(1, 41));

// `return x` inside `levels` nested parentheses: one 2*levels+ byte line.
std::string ParenthesizedReturn(int levels) {
  return "static int deep(int x)\n{\n  return " + std::string(static_cast<size_t>(levels), '(') +
         "x" + std::string(static_cast<size_t>(levels), ')') + ";\n}\n";
}

TEST(ParserDepthTest, DeepParenthesesFlattenInsteadOfExhaustingTheStack) {
  // 20,000 levels used to overflow the stack; past the depth cap the rest
  // of the nest becomes one error node, and the function still parses.
  const TranslationUnit unit = Parse(ParenthesizedReturn(20000));
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_TRUE(unit.degraded.empty());
  const Stmt& body = *unit.functions[0].body;
  ASSERT_EQ(body.stmts.size(), 1u);
  ASSERT_EQ(body.stmts[0]->kind, Stmt::Kind::kReturn);
  EXPECT_EQ(body.stmts[0]->expr->kind, Expr::Kind::kError);

  // Within the cap nothing changes: the parentheses leave no node behind.
  const TranslationUnit shallow = Parse(ParenthesizedReturn(150));
  ASSERT_EQ(shallow.functions.size(), 1u);
  const Expr& ident = *shallow.functions[0].body->stmts[0]->expr;
  EXPECT_EQ(ident.kind, Expr::Kind::kIdent);
  EXPECT_EQ(ident.value, "x");
}

TEST(ParserDepthTest, ExpressionDepthIsFatalUnderDepthFatal) {
  ParseOptions options;
  options.max_depth = 64;
  options.depth_fatal = true;
  const SourceFile deep("t.c", ParenthesizedReturn(100));
  EXPECT_THROW(ParseFile(deep, options), ResourceLimitError);
  const SourceFile shallow("t.c", ParenthesizedReturn(40));
  EXPECT_EQ(ParseFile(shallow, options).functions.size(), 1u);
}

TEST(ParserDepthTest, LongUnaryAndAssignmentChainsAreBounded) {
  // Both recurse without parentheses.
  const std::string unary = "void f(void)\n{\n  y = " + std::string(50000, '!') + "x;\n}\n";
  std::string assign = "void g(void)\n{\n  ";
  for (int i = 0; i < 50000; ++i) {
    assign += "a = ";
  }
  assign += "b;\n}\n";
  for (const std::string& text : {unary, assign}) {
    const TranslationUnit unit = Parse(text);
    ASSERT_EQ(unit.functions.size(), 1u);
    EXPECT_TRUE(unit.degraded.empty());
  }
}

}  // namespace
}  // namespace refscan
