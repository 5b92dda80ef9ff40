// Tests for the public acquisition-analysis API and its option-keyed cache.

#include <gtest/gtest.h>

#include "src/ast/parser.h"
#include "src/checkers/analysis.h"
#include "src/checkers/engine.h"

namespace refscan {
namespace {

// Builds a UnitContext for one file (kept alive by the caller).
struct Built {
  SourceFile file;
  UnitContext uc;
};

std::unique_ptr<Built> BuildOne(std::string text, const KnowledgeBase& kb) {
  auto built = std::make_unique<Built>(Built{SourceFile("t.c", std::move(text)), {}});
  built->uc = BuildUnitContext(built->file, ParseFile(built->file), kb);
  return built;
}

constexpr const char* kCode =
    "static int f(struct platform_device *pdev)\n"
    "{\n"
    "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
    "  if (!np)\n"
    "    return -ENODEV;\n"
    "  if (prepare(np) < 0)\n"
    "    return -EIO;\n"
    "  of_node_put(np);\n"
    "  return 0;\n"
    "}\n";

TEST(AnalysisTest, SummarisesAcquisitionSites) {
  static const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto built = BuildOne(kCode, kb);
  ASSERT_EQ(built->uc.functions.size(), 1u);
  const FunctionContext& fc = built->uc.functions.front();

  const auto& analysis = AnalyzeAcquisitions(fc, ScanOptions{});
  ASSERT_EQ(analysis.size(), 1u);
  const AcqSite& site = analysis.begin()->second;
  EXPECT_EQ(site.object, "np");
  EXPECT_EQ(site.api->name, "of_find_node_by_path");
  EXPECT_EQ(site.line, 3u);
  EXPECT_TRUE(site.paired_somewhere);       // the good path puts
  EXPECT_TRUE(site.unpaired_error_path);    // the -EIO path leaks
  EXPECT_EQ(site.error_exit_line, 7u);
  EXPECT_FALSE(site.freed_direct);
}

TEST(AnalysisTest, CacheReusedForSameOptions) {
  static const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto built = BuildOne(kCode, kb);
  const FunctionContext& fc = built->uc.functions.front();
  const ScanOptions options;
  const auto& first = AnalyzeAcquisitions(fc, options);
  const auto& second = AnalyzeAcquisitions(fc, options);
  EXPECT_EQ(&first, &second);  // same shared cache generation
}

TEST(AnalysisTest, CacheInvalidatedWhenOptionsChange) {
  static const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto built = BuildOne(
      "static struct device_node *g(void)\n"
      "{\n"
      "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
      "  return np;\n"  // a transfer — only modelled when the option is on
      "}\n",
      kb);
  const FunctionContext& fc = built->uc.functions.front();

  ScanOptions with_transfer;
  const auto& first = AnalyzeAcquisitions(fc, with_transfer);
  const AcqSite& modelled = first.begin()->second;
  EXPECT_TRUE(modelled.transferred);
  EXPECT_FALSE(modelled.unpaired_path);

  ScanOptions without_transfer;
  without_transfer.model_ownership_transfer = false;
  const auto& second = AnalyzeAcquisitions(fc, without_transfer);
  const AcqSite& naive = second.begin()->second;
  EXPECT_FALSE(naive.transferred);
  EXPECT_TRUE(naive.unpaired_path);
}

}  // namespace
}  // namespace refscan
