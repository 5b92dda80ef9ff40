// Tests for the front-end dump printers.

#include <gtest/gtest.h>

#include "src/ast/parser.h"
#include "src/cpg/dump.h"

namespace refscan {
namespace {

const char* kCode =
    "#define MAGIC 42\n"
    "struct widget { struct kref ref; int id; };\n"
    "static struct platform_driver w_driver = { .probe = w_probe, .remove = w_remove };\n"
    "static int w_probe(struct platform_device *pdev)\n"
    "{\n"
    "  struct device_node *np = of_find_node_by_path(\"/w\");\n"
    "  if (!np)\n"
    "    return -ENODEV;\n"
    "  of_node_put(np);\n"
    "  return 0;\n"
    "}\n";

TEST(DumpTest, Tokens) {
  SourceFile file("w.c", kCode);
  const std::string out = DumpTokens(file);
  EXPECT_NE(out.find("preproc"), std::string::npos);
  EXPECT_NE(out.find("keyword  struct"), std::string::npos);
  EXPECT_NE(out.find("ident"), std::string::npos);
  EXPECT_NE(out.find("eof"), std::string::npos);
}

TEST(DumpTest, Ast) {
  SourceFile file("w.c", kCode);
  const std::string out = DumpAst(ParseFile(file));
  EXPECT_NE(out.find("macro MAGIC"), std::string::npos);
  EXPECT_NE(out.find("struct widget"), std::string::npos);
  EXPECT_NE(out.find("field ref : struct kref"), std::string::npos);
  EXPECT_NE(out.find(".probe = w_probe"), std::string::npos);
  EXPECT_NE(out.find("function static w_probe"), std::string::npos);
  EXPECT_NE(out.find("if @7"), std::string::npos);
  EXPECT_NE(out.find("return @8"), std::string::npos);
}

TEST(DumpTest, Cfg) {
  SourceFile file("w.c", kCode);
  static TranslationUnit unit = ParseFile(file);
  const Cfg cfg = BuildCfg(*unit.FindFunction("w_probe"));
  const std::string out = DumpCfg(cfg);
  EXPECT_NE(out.find("cfg for w_probe"), std::string::npos);
  EXPECT_NE(out.find("entry"), std::string::npos);
  EXPECT_NE(out.find("cond"), std::string::npos);
  EXPECT_NE(out.find("->"), std::string::npos);
}

TEST(DumpTest, Cpg) {
  SourceFile file("w.c", kCode);
  static TranslationUnit unit = ParseFile(file);
  static const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  static const Cfg cfg = BuildCfg(*unit.FindFunction("w_probe"));
  const Cpg cpg = BuildCpg(cfg, kb);
  const std::string out = DumpCpg(cpg);
  EXPECT_NE(out.find("INC"), std::string::npos);
  EXPECT_NE(out.find("DEC"), std::string::npos);
  EXPECT_NE(out.find("NULLCHK"), std::string::npos);
  EXPECT_NE(out.find("api=of_find_node_by_path"), std::string::npos);
}

TEST(DumpTest, CpgNamesTheRawRefcountOps) {
  SourceFile file("w.c",
                  "struct widget { refcount_t refs; };\n"
                  "static void w_reset(struct widget *w)\n"
                  "{\n"
                  "  w->refs = 0;\n"
                  "  w->refs++;\n"
                  "  w->refs--;\n"
                  "}\n");
  static TranslationUnit unit = ParseFile(file);
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  kb.DiscoverFromUnit(unit);
  const Cfg cfg = BuildCfg(*unit.FindFunction("w_reset"));
  const std::string out = DumpCpg(BuildCpg(cfg, kb));
  EXPECT_NE(out.find("@4    RAWSET  obj='w->refs'"), std::string::npos) << out;
  EXPECT_NE(out.find("@5    RAWINC  obj='w->refs'"), std::string::npos) << out;
  EXPECT_NE(out.find("@6    RAWDEC  obj='w->refs'"), std::string::npos) << out;
  EXPECT_EQ(out.find(" ? "), std::string::npos) << out;
  for (SemOp op : {SemOp::kRawInc, SemOp::kRawDec, SemOp::kRawSet}) {
    EXPECT_NE(SemOpName(op), "?");
  }
}

TEST(DumpTest, SemOpNamesComplete) {
  for (SemOp op : {SemOp::kIncrease, SemOp::kDecrease, SemOp::kAssign, SemOp::kDeref,
                   SemOp::kLock, SemOp::kUnlock, SemOp::kFree, SemOp::kNullCheck, SemOp::kReturn,
                   SemOp::kLoopHead}) {
    EXPECT_NE(SemOpName(op), "?");
  }
}

}  // namespace
}  // namespace refscan
