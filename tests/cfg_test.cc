// Unit tests for CFG construction, error-context classification and path
// enumeration.

#include <gtest/gtest.h>

#include <set>

#include "src/ast/parser.h"
#include "src/cfg/cfg.h"
#include "src/support/source.h"
#include "tests/path_enumerator.h"

namespace refscan {
namespace {

struct Built {
  TranslationUnit unit;
  Cfg cfg;
};

Built Build(std::string text) {
  SourceFile file("t.c", std::move(text));
  static std::vector<TranslationUnit> keep;  // function ASTs must outlive CFGs
  keep.push_back(ParseFile(file));
  EXPECT_FALSE(keep.back().functions.empty());
  return Built{TranslationUnit{}, BuildCfg(keep.back().functions[0])};
}

size_t CountPaths(const Cfg& cfg, size_t max_paths = 2048) {
  size_t n = 0;
  EnumeratePaths(cfg, [&](const std::vector<int>&) { ++n; }, max_paths);
  return n;
}

TEST(CfgTest, StraightLineHasOnePath) {
  auto built = Build("void f(void) { a(); b(); c(); }");
  EXPECT_EQ(CountPaths(built.cfg), 1u);
  // entry, exit, 3 statements
  EXPECT_EQ(built.cfg.size(), 5u);
}

TEST(CfgTest, IfElseGivesTwoPaths) {
  auto built = Build("void f(int x) { if (x) a(); else b(); c(); }");
  EXPECT_EQ(CountPaths(built.cfg), 2u);
}

TEST(CfgTest, IfWithoutElseGivesTwoPaths) {
  auto built = Build("void f(int x) { if (x) a(); c(); }");
  EXPECT_EQ(CountPaths(built.cfg), 2u);
}

TEST(CfgTest, ReturnShortCircuitsToExit) {
  auto built = Build("int f(int x) { if (x) return 1; a(); return 0; }");
  EXPECT_EQ(CountPaths(built.cfg), 2u);
  // No path contains both the early return and a().
  EnumeratePaths(built.cfg, [&](const std::vector<int>& path) {
    bool saw_ret1 = false;
    bool saw_a = false;
    for (int n : path) {
      const CfgNode& node = built.cfg.node(n);
      if (node.stmt != nullptr && node.stmt->kind == Stmt::Kind::kReturn &&
          node.stmt->expr != nullptr && node.stmt->expr->value == "1") {
        saw_ret1 = true;
      }
      if (node.expr != nullptr && node.expr->IsCall() && node.expr->CalleeName() == "a") {
        saw_a = true;
      }
    }
    EXPECT_FALSE(saw_ret1 && saw_a);
  });
}

TEST(CfgTest, WhileLoopBoundedPaths) {
  auto built = Build("void f(void) { while (c()) body(); after(); }");
  // 0, 1 or 2 iterations under the visit cap.
  const size_t paths = CountPaths(built.cfg);
  EXPECT_GE(paths, 2u);
  EXPECT_LE(paths, 4u);
}

TEST(CfgTest, GotoResolvesToLabel) {
  auto built = Build(
      "int f(void) {\n"
      "  if (bad())\n"
      "    goto err;\n"
      "  ok();\n"
      "  return 0;\n"
      "err:\n"
      "  cleanup();\n"
      "  return -1;\n"
      "}\n");
  // Paths: good path; goto path. The fallthrough `return 0` prevents
  // falling into err:, so exactly 2 paths.
  EXPECT_EQ(CountPaths(built.cfg), 2u);
  bool goto_reaches_cleanup = false;
  EnumeratePaths(built.cfg, [&](const std::vector<int>& path) {
    bool saw_goto = false;
    for (int n : path) {
      const CfgNode& node = built.cfg.node(n);
      if (node.stmt != nullptr && node.stmt->kind == Stmt::Kind::kGoto) {
        saw_goto = true;
      }
      if (saw_goto && node.expr != nullptr && node.expr->IsCall() &&
          node.expr->CalleeName() == "cleanup") {
        goto_reaches_cleanup = true;
      }
    }
  });
  EXPECT_TRUE(goto_reaches_cleanup);
}

TEST(CfgTest, ErrorLabelRegionIsErrorContext) {
  auto built = Build(
      "int f(void) {\n"
      "  ok();\n"
      "  return 0;\n"
      "err_free:\n"
      "  cleanup();\n"
      "  return -1;\n"
      "}\n");
  bool cleanup_is_error = false;
  bool ok_is_error = false;
  for (size_t i = 0; i < built.cfg.size(); ++i) {
    const CfgNode& node = built.cfg.node(static_cast<int>(i));
    if (node.expr != nullptr && node.expr->IsCall()) {
      if (node.expr->CalleeName() == "cleanup") {
        cleanup_is_error = node.is_error_context;
      }
      if (node.expr->CalleeName() == "ok") {
        ok_is_error = node.is_error_context;
      }
    }
  }
  EXPECT_TRUE(cleanup_is_error);
  EXPECT_FALSE(ok_is_error);
}

TEST(CfgTest, ErrorConditionBranchIsErrorContext) {
  auto built = Build(
      "int f(void) {\n"
      "  int ret = g();\n"
      "  if (ret < 0) {\n"
      "    handle();\n"
      "    return ret;\n"
      "  }\n"
      "  good();\n"
      "  return 0;\n"
      "}\n");
  bool handle_is_error = false;
  bool good_is_error = true;
  for (size_t i = 0; i < built.cfg.size(); ++i) {
    const CfgNode& node = built.cfg.node(static_cast<int>(i));
    if (node.expr != nullptr && node.expr->IsCall()) {
      if (node.expr->CalleeName() == "handle") {
        handle_is_error = node.is_error_context;
      }
      if (node.expr->CalleeName() == "good") {
        good_is_error = node.is_error_context;
      }
    }
  }
  EXPECT_TRUE(handle_is_error);
  EXPECT_FALSE(good_is_error);
}

TEST(CfgTest, MacroLoopMembershipRecorded) {
  auto built = Build(
      "void f(void) {\n"
      "  for_each_child_of_node(parent, child) {\n"
      "    use(child);\n"
      "    if (match(child))\n"
      "      break;\n"
      "  }\n"
      "  after();\n"
      "}\n");
  int head = -1;
  for (size_t i = 0; i < built.cfg.size(); ++i) {
    if (built.cfg.node(static_cast<int>(i)).kind == CfgNode::Kind::kLoopHead) {
      head = static_cast<int>(i);
    }
  }
  ASSERT_GE(head, 0);
  bool use_in_loop = false;
  bool after_in_loop = false;
  bool break_in_loop = false;
  for (size_t i = 0; i < built.cfg.size(); ++i) {
    const CfgNode& node = built.cfg.node(static_cast<int>(i));
    if (node.expr != nullptr && node.expr->IsCall() && node.expr->CalleeName() == "use") {
      use_in_loop = node.macro_loop == head;
    }
    if (node.expr != nullptr && node.expr->IsCall() && node.expr->CalleeName() == "after") {
      after_in_loop = node.macro_loop == head;
    }
    if (node.stmt != nullptr && node.stmt->kind == Stmt::Kind::kBreak) {
      break_in_loop = node.macro_loop == head;
    }
  }
  EXPECT_TRUE(use_in_loop);
  EXPECT_TRUE(break_in_loop);
  EXPECT_FALSE(after_in_loop);
}

TEST(CfgTest, PathCapTruncates) {
  // 12 sequential ifs → 2^12 paths, cap at 16.
  std::string body;
  for (int i = 0; i < 12; ++i) {
    body += "if (c" + std::to_string(i) + ") a();\n";
  }
  auto built = Build("void f(void) {\n" + body + "}\n");
  size_t n = 0;
  const bool complete = EnumeratePaths(built.cfg, [&](const std::vector<int>&) { ++n; }, 16);
  EXPECT_FALSE(complete);
  EXPECT_EQ(n, 16u);
}

TEST(ClassifyErrorConditionTest, Shapes) {
  auto classify = [](std::string_view text) {
    const ParsedExpr e = ParseExpression(text);
    return ClassifyErrorCondition(*e);
  };
  EXPECT_EQ(classify("ret < 0"), 1);
  EXPECT_EQ(classify("ret >= 0"), -1);
  EXPECT_EQ(classify("!np"), 1);
  EXPECT_EQ(classify("np == NULL"), 1);
  EXPECT_EQ(classify("np != NULL"), -1);
  EXPECT_EQ(classify("IS_ERR(ptr)"), 1);
  EXPECT_EQ(classify("unlikely(ret < 0)"), 1);
  EXPECT_EQ(classify("ret"), 1);
  EXPECT_EQ(classify("x > 10"), 0);
  EXPECT_EQ(classify("a && ret < 0"), 1);
}

TEST(IsErrorLabelTest, Names) {
  EXPECT_TRUE(IsErrorLabel("err"));
  EXPECT_TRUE(IsErrorLabel("err_out"));
  EXPECT_TRUE(IsErrorLabel("out"));
  EXPECT_TRUE(IsErrorLabel("fail_unmap"));
  EXPECT_TRUE(IsErrorLabel("cleanup"));
  EXPECT_FALSE(IsErrorLabel("retry"));
  EXPECT_FALSE(IsErrorLabel("done_ok"));
}

TEST(ReturnsErrorCodeTest, Shapes) {
  auto returns_err = [](std::string body) {
    const TranslationUnit unit = ParseSnippet(std::move(body));
    bool found = false;
    ForEachStmt(*unit.functions[0].body, [&](const Stmt& s) { found |= ReturnsErrorCode(s); });
    return found;
  };
  EXPECT_TRUE(returns_err("return -EINVAL;"));
  EXPECT_TRUE(returns_err("return -1;"));
  EXPECT_TRUE(returns_err("return ERR_PTR(-ENOMEM);"));
  EXPECT_FALSE(returns_err("return 0;"));
  EXPECT_FALSE(returns_err("return np;"));
}

// Property sweep: for N sequential binary branches, path count is exactly
// 2^N (below the cap) and all paths start at entry / end at exit.
class PathCountTest : public ::testing::TestWithParam<int> {};

TEST_P(PathCountTest, SequentialBranches) {
  const int n = GetParam();
  std::string body;
  for (int i = 0; i < n; ++i) {
    body += "if (c" + std::to_string(i) + ") a" + std::to_string(i) + "();\n";
  }
  auto built = Build("void f(void) {\n" + body + "}\n");
  size_t paths = 0;
  EnumeratePaths(built.cfg,
      [&](const std::vector<int>& path) {
        ++paths;
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front(), built.cfg.entry());
        EXPECT_EQ(path.back(), built.cfg.exit());
      },
      4096);
  EXPECT_EQ(paths, static_cast<size_t>(1) << n);
}

INSTANTIATE_TEST_SUITE_P(Branches, PathCountTest, ::testing::Values(0, 1, 2, 3, 5, 8));

}  // namespace
}  // namespace refscan
