// Stage 3 checks one function at a time through one FunctionContext rebuilt
// in place (FunctionContext::Rebuild), and runs P6 in plan / record / emit
// steps (InterUnpairedCheck). These tests pin both against the whole-unit
// forms: a rebuilt context equals a fresh BuildUnitContext one whatever
// function it held before, and stage 3's P6 equals CheckInterUnpaired over
// a full UnitContext.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ast/parser.h"
#include "src/checkers/analysis.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/corpus/generator.h"

namespace refscan {
namespace {

// ---- FunctionContext::Rebuild ---------------------------------------------

void ExpectSameCfg(const Cfg& got, const Cfg& want, const std::string& where) {
  ASSERT_EQ(got.function(), want.function()) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  EXPECT_EQ(got.entry(), want.entry()) << where;
  EXPECT_EQ(got.exit(), want.exit()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    const int n = static_cast<int>(i);
    const CfgNode& a = got.node(n);
    const CfgNode& b = want.node(n);
    EXPECT_EQ(a.kind, b.kind) << where << " node " << n;
    EXPECT_EQ(a.stmt, b.stmt) << where << " node " << n;
    EXPECT_EQ(a.expr, b.expr) << where << " node " << n;
    EXPECT_EQ(a.line, b.line) << where << " node " << n;
    EXPECT_EQ(a.is_error_context, b.is_error_context) << where << " node " << n;
    EXPECT_EQ(a.macro_loop, b.macro_loop) << where << " node " << n;
    EXPECT_EQ(a.any_loop, b.any_loop) << where << " node " << n;
    EXPECT_EQ(a.error_branch, b.error_branch) << where << " node " << n;
    const std::span<const int> sa = got.succs(n);
    const std::span<const int> sb = want.succs(n);
    EXPECT_EQ(std::vector<int>(sa.begin(), sa.end()), std::vector<int>(sb.begin(), sb.end()))
        << where << " node " << n;
  }
}

void ExpectSameCpg(const Cpg& got, const Cpg& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  EXPECT_EQ(got.params().size(), want.params().size()) << where;
  EXPECT_EQ(got.locals().size(), want.locals().size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    const auto a = got.events(static_cast<int>(i));
    const auto b = want.events(static_cast<int>(i));
    ASSERT_EQ(a.size(), b.size()) << where << " node " << i;
    for (size_t k = 0; k < b.size(); ++k) {
      EXPECT_EQ(a[k].op, b[k].op) << where << " node " << i;
      EXPECT_EQ(a[k].object, b[k].object) << where << " node " << i;
      EXPECT_EQ(a[k].aux, b[k].aux) << where << " node " << i;
      EXPECT_EQ(a[k].line, b[k].line) << where << " node " << i;
      EXPECT_EQ(a[k].api, b[k].api) << where << " node " << i;
      EXPECT_EQ(a[k].loop, b[k].loop) << where << " node " << i;
      EXPECT_EQ(a[k].escapes, b[k].escapes) << where << " node " << i;
      EXPECT_EQ(a[k].checks_null_true_branch, b[k].checks_null_true_branch) << where;
      EXPECT_EQ(a[k].result_tested, b[k].result_tested) << where << " node " << i;
      EXPECT_EQ(a[k].raw_set_nonzero, b[k].raw_set_nonzero) << where << " node " << i;
    }
  }
}

void ExpectSameWalk(const FunctionContext& got, const FunctionContext& want,
                    const std::string& where) {
  const std::vector<WalkPos>& a = got.Walk().ReachableEvents();
  const std::vector<WalkPos>& b = want.Walk().ReachableEvents();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << where;
    EXPECT_EQ(a[i].index, b[i].index) << where;
    // Each position addresses its own context's event.
    EXPECT_EQ(a[i].ev, &got.cpg->events(a[i].node)[a[i].index]) << where;
  }
}

void ExpectSameAcquisitions(const FunctionContext& got, const FunctionContext& want,
                            const ScanOptions& options, const std::string& where) {
  const AcquisitionAnalysis& a = AnalyzeAcquisitions(got, options);
  const AcquisitionAnalysis& b = AnalyzeAcquisitions(want, options);
  ASSERT_EQ(a.size(), b.size()) << where;
  for (auto ia = a.begin(), ib = b.begin(); ib != b.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first) << where;
    const AcqSite& x = ia->second;
    const AcqSite& y = ib->second;
    EXPECT_EQ(x.api, y.api) << where << " " << ib->first;
    EXPECT_EQ(x.line, y.line) << where << " " << ib->first;
    EXPECT_EQ(x.object, y.object) << where << " " << ib->first;
    EXPECT_EQ(x.paired_somewhere, y.paired_somewhere) << where << " " << ib->first;
    EXPECT_EQ(x.transferred, y.transferred) << where << " " << ib->first;
    EXPECT_EQ(x.unpaired_path, y.unpaired_path) << where << " " << ib->first;
    EXPECT_EQ(x.unpaired_error_path, y.unpaired_error_path) << where << " " << ib->first;
    EXPECT_EQ(x.error_exit_line, y.error_exit_line) << where << " " << ib->first;
    EXPECT_EQ(x.freed_direct, y.freed_direct) << where << " " << ib->first;
    EXPECT_EQ(x.free_line, y.free_line) << where << " " << ib->first;
    EXPECT_EQ(x.reassigned_while_held, y.reassigned_while_held) << where << " " << ib->first;
  }
}

TEST(FunctionContextRebuildTest, MatchesAFreshContextForEveryCorpusFunction) {
  CorpusOptions corpus_options;
  corpus_options.kernelish_modules = 20;
  corpus_options.wrapper_chain_depths = {2, 3};
  corpus_options.new_family_modules = true;
  const Corpus corpus = GenerateKernelCorpus(corpus_options);

  ScanOptions options;
  options.dialects = {"glib", "uacpi"};
  ScanSpine spine(corpus.tree, KnowledgeBase::BuiltIn(), options, /*keep_units=*/true);
  ASSERT_TRUE(spine.RunFront());
  // Both memo keys, so a rebuild also meets a memo built under the other.
  ScanOptions no_transfer = options;
  no_transfer.model_ownership_transfer = false;

  // One context for the whole corpus: every function it is rebuilt for
  // follows another one, larger or smaller, from this file or the last.
  FunctionContext reused;
  size_t rebuilds = 0;
  for (size_t f = 0; f < spine.files().size(); ++f) {
    FileScanState& st = spine.states()[f];
    if (!st.unit) {
      continue;
    }
    const UnitContext uc = BuildUnitContext(*spine.files()[f], *std::move(st.unit), spine.kb());
    st.unit.reset();
    const size_t n = uc.functions.size();
    for (const bool reverse : {false, true}) {
      for (size_t k = 0; k < n; ++k) {
        const FunctionContext& fresh = uc.functions[reverse ? n - 1 - k : k];
        const std::string where = uc.unit.path + ": " + fresh.fn->name.str() +
                                  (reverse ? " (reverse order)" : " (file order)");
        reused.Rebuild(uc.unit, *fresh.fn, spine.kb());
        ++rebuilds;
        ASSERT_EQ(reused.fn, fresh.fn) << where;
        ASSERT_EQ(reused.unit, &uc.unit) << where;
        ExpectSameCfg(*reused.cfg, *fresh.cfg, where);
        ExpectSameCpg(*reused.cpg, *fresh.cpg, where);
        ExpectSameWalk(reused, fresh, where);
        ExpectSameAcquisitions(reused, fresh, (k % 2 == 0) ? options : no_transfer, where);
        ExpectSameAcquisitions(reused, fresh, (k % 2 == 0) ? no_transfer : options, where);
      }
    }
  }
  EXPECT_GT(rebuilds, 2000u);
}

// ---- P6 in steps ----------------------------------------------------------

constexpr char kPath[] = "drivers/x/x.c";

// Stage 3's raw report shard for one file with only P6 enabled.
std::vector<BugReport> Stage3P6(const std::string& text) {
  static const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const SourceFile file(kPath, text);
  ScanOptions options;
  options.enabled_patterns = {6};
  return CheckOneFile(file, ParseFile(file), kb, options).reports;
}

// CheckInterUnpaired over a full UnitContext.
std::vector<BugReport> WholeUnitP6(const std::string& text) {
  static const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const SourceFile file(kPath, text);
  const UnitContext uc = BuildUnitContext(file, ParseFile(file), kb);
  std::vector<BugReport> out;
  CheckInterUnpaired(uc, kb, ScanOptions{}, out);
  return out;
}

// "function:line: message" per report, in raw order.
std::vector<std::string> Describe(const std::vector<BugReport>& reports) {
  std::vector<std::string> out;
  for (const BugReport& r : reports) {
    EXPECT_EQ(r.anti_pattern, 6);
    EXPECT_EQ(r.file, kPath);
    out.push_back(r.function + ":" + std::to_string(r.line) + ": " + r.message);
  }
  return out;
}

// The expected P6 reports of `text`, from stage 3 and from the whole unit,
// which must agree report for report (every BugReport field).
void ExpectP6(const std::string& text, const std::vector<std::string>& expected) {
  const std::vector<BugReport> stage3 = Stage3P6(text);
  const std::vector<BugReport> whole = WholeUnitP6(text);
  EXPECT_EQ(Describe(stage3), expected);
  EXPECT_EQ(ReportsToJson(stage3), ReportsToJson(whole));
}

// An acquiring function: keeps an of-node reference in a global.
std::string Acquirer(const std::string& name) {
  return "static int " + name +
         "(void)\n"
         "{\n"
         "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
         "  if (!np)\n"
         "    return -ENODEV;\n"
         "  g_np = np;\n"
         "  return 0;\n"
         "}\n";
}

// A function with no refcounting at all.
std::string Plain(const std::string& name) {
  return "static void " + name + "(void)\n{\n  g_np = NULL;\n}\n";
}

// A function that releases the of-node family.
std::string Releaser(const std::string& name) {
  return "static void " + name + "(void)\n{\n  of_node_put(g_np);\n}\n";
}

std::string Leak(const std::string& acq, int line, const std::string& rel) {
  return acq + ":" + std::to_string(line) + ": " + acq +
         "() acquires via of_find_node_by_path() but paired " + rel +
         "() never releases the of-node family";
}

TEST(InterUnpairedStepsTest, ReleaseDefinedBeforeTheAcquirer) {
  ExpectP6(Plain("foo_unregister") + Acquirer("foo_register"),
           {Leak("foo_register", 7, "foo_unregister")});
  ExpectP6(Releaser("foo_unregister") + Acquirer("foo_register"), {});
}

TEST(InterUnpairedStepsTest, TwoFunctionsWithOneNamePairTheFirst) {
  // Both definitions pair with baz_unregister, but P6 reads the first one
  // of the name for both pairs, and reports its site once.
  ExpectP6(Acquirer("baz_register") + Plain("baz_register") + Plain("baz_unregister"),
           {Leak("baz_register", 3, "baz_unregister")});
  ExpectP6(Plain("baz_register") + Acquirer("baz_register") + Plain("baz_unregister"), {});
  // The same holds for the releasing side.
  ExpectP6(Acquirer("baz_register") + Releaser("baz_unregister") + Plain("baz_unregister"), {});
  ExpectP6(Acquirer("baz_register") + Plain("baz_unregister") + Releaser("baz_unregister"),
           {Leak("baz_register", 3, "baz_unregister")});
}

TEST(InterUnpairedStepsTest, MixedCaseNamesPairOnlyWithTheLowerCasedCandidate) {
  ExpectP6(Acquirer("Foo_Register") + Plain("foo_unregister"),
           {Leak("Foo_Register", 3, "foo_unregister")});
  ExpectP6(Acquirer("Foo_Register") + Plain("Foo_Unregister"), {});
}

TEST(InterUnpairedStepsTest, AFunctionPairedWithItself) {
  // By name a function never pairs with itself (the candidate always swaps
  // a word), but an ops struct may name one function on both sides.
  const std::string ops =
      "static struct platform_driver d = {\n  .probe = qux,\n  .remove = qux,\n};\n";
  ExpectP6(Acquirer("qux") + ops, {Leak("qux", 3, "qux")});
  ExpectP6(Releaser("qux") + ops, {});
}

TEST(InterUnpairedStepsTest, OpsStructNamingAnUndefinedFunction) {
  ExpectP6(Acquirer("widget_setup") +
               "static struct platform_driver d = {\n"
               "  .probe = widget_setup,\n"
               "  .remove = widget_teardown,\n"
               "};\n",
           {});
  ExpectP6(Plain("widget_teardown") +
               "static struct platform_driver d = {\n"
               "  .probe = widget_setup,\n"
               "  .remove = widget_teardown,\n"
               "};\n",
           {});
  // Defined after all: the pair stands.
  ExpectP6(Acquirer("widget_setup") + Plain("widget_teardown") +
               "static struct platform_driver d = {\n"
               "  .probe = widget_setup,\n"
               "  .remove = widget_teardown,\n"
               "};\n",
           {Leak("widget_setup", 3, "widget_teardown")});
}

}  // namespace
}  // namespace refscan
