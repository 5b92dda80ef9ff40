// Tests for the semantic-template matching DSL.

#include <gtest/gtest.h>

#include <string>

#include "src/checkers/template_matcher.h"

namespace refscan {
namespace {

std::vector<BugReport> RunTemplate(const std::string& tmpl_text, std::string code) {
  const auto tmpl = ParseTemplate(tmpl_text);
  EXPECT_TRUE(tmpl.has_value()) << tmpl_text;
  if (!tmpl.has_value()) {
    return {};
  }
  SourceTree tree;
  tree.Add("drivers/t/t.c", std::move(code));
  return RunTemplateChecker(*tmpl, tree);
}

// -------------------------------------------------------------- parsing

TEST(TemplateParseTest, ParsesCanonicalTemplates) {
  for (const char* text : {
           "F_start -> S_G_E -> B_error -> F_end",
           "F_start -> S_P(p0) -> S_D(p0) -> F_end",
           "F_start -> M_SL -> S_ret -> F_end",
           "F_start -> S_G -> S_free -> F_end",
           "F_start -> S_A_GO(p0) -> S_P(p0) -> F_end",
           "S_G(of_node_get) -> !S_P -> F_end",
       }) {
    EXPECT_TRUE(ParseTemplate(text).has_value()) << text;
  }
}

TEST(TemplateParseTest, StepDetails) {
  const auto tmpl = ParseTemplate("F_start -> !S_P(p0) -> S_G_N(p0) -> F_end");
  ASSERT_TRUE(tmpl.has_value());
  ASSERT_EQ(tmpl->steps.size(), 4u);
  EXPECT_EQ(tmpl->steps[0].what, MatchStep::What::kFunctionStart);
  EXPECT_TRUE(tmpl->steps[1].negated);
  EXPECT_EQ(tmpl->steps[1].what, MatchStep::What::kDecrease);
  EXPECT_TRUE(tmpl->steps[1].wants_p0);
  EXPECT_TRUE(tmpl->steps[2].require_returns_null);
}

TEST(TemplateParseTest, ApiFilterVsP0) {
  const auto tmpl = ParseTemplate("S_G(kref_get) -> S_P(p0)");
  ASSERT_TRUE(tmpl.has_value());
  EXPECT_EQ(tmpl->steps[0].api_filter, "kref_get");
  EXPECT_FALSE(tmpl->steps[0].wants_p0);
  EXPECT_TRUE(tmpl->steps[1].wants_p0);
}

TEST(TemplateParseTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTemplate("").has_value());
  EXPECT_FALSE(ParseTemplate("S_X -> F_end").has_value());
  EXPECT_FALSE(ParseTemplate("S_G( -> F_end").has_value());
  EXPECT_FALSE(ParseTemplate("wibble").has_value());
}

// The walk's state is the index of the next step, so a template may have at
// most kMaxTemplateSteps (63) steps.
std::string DerefTemplate(size_t steps) {
  std::string text = "F_start";
  for (size_t i = 2; i < steps; ++i) {
    text += " -> S_D(p0)";
  }
  return text + " -> F_end";
}

TEST(TemplateParseTest, LongestTemplateTheWalkEncodesMatches) {
  const auto tmpl = ParseTemplate(DerefTemplate(kMaxTemplateSteps));
  ASSERT_TRUE(tmpl.has_value());
  ASSERT_EQ(tmpl->steps.size(), 63u);
  std::string code = "void touch_all(struct sock *sk)\n{\n";
  for (size_t i = 0; i < kMaxTemplateSteps - 2; ++i) {
    code += "  use(sk->f" + std::to_string(i) + ");\n";
  }
  SourceTree tree;
  tree.Add("drivers/t/t.c", code + "}\n");
  const auto reports = RunTemplateChecker(*tmpl, tree);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].object, "sk");
  EXPECT_EQ(reports[0].exit_line, 3u + kMaxTemplateSteps - 3);
}

TEST(TemplateParseTest, OneStepMoreThanTheWalkEncodesIsRejected) {
  EXPECT_FALSE(ParseTemplate(DerefTemplate(kMaxTemplateSteps + 1)).has_value());
  EXPECT_FALSE(ParseTemplate(DerefTemplate(72)).has_value());
}

// ------------------------------------------------------------- matching

constexpr const char* kUadCode =
    "void ping_unhash(struct sock *sk)\n"
    "{\n"
    "  sock_put(sk);\n"
    "  touch(sk->sk_prot);\n"
    "}\n";

TEST(TemplateMatchTest, Listing2TemplateMatchesUad) {
  const auto reports = RunTemplate("F_start -> S_P(p0) -> S_D(p0) -> F_end", kUadCode);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].function, "ping_unhash");
  EXPECT_EQ(reports[0].object, "sk");
  EXPECT_EQ(reports[0].line, 3u);
  EXPECT_EQ(reports[0].exit_line, 4u);
}

TEST(TemplateMatchTest, P0UnificationRejectsDifferentObjects) {
  const auto reports = RunTemplate("F_start -> S_P(p0) -> S_D(p0) -> F_end",
                           "void ok(struct sock *sk, struct dev *d)\n"
                           "{\n"
                           "  sock_put(sk);\n"
                           "  touch(d->stats);\n"  // different object: no match
                           "}\n");
  EXPECT_TRUE(reports.empty());
}

TEST(TemplateMatchTest, NegationForbidsInterveningEvent) {
  // "increase with no decrease before function end" — the essence of a
  // leak checker in one line.
  const char* tmpl = "F_start -> S_G(p0) -> !S_P(p0) -> F_end";
  const auto leaky = RunTemplate(tmpl,
                         "void leak(struct device_node *np)\n"
                         "{\n"
                         "  of_node_get(np);\n"
                         "}\n");
  EXPECT_EQ(leaky.size(), 1u);

  const auto clean = RunTemplate(tmpl,
                         "void balanced(struct device_node *np)\n"
                         "{\n"
                         "  of_node_get(np);\n"
                         "  of_node_put(np);\n"
                         "}\n");
  EXPECT_TRUE(clean.empty());
}

TEST(TemplateMatchTest, StepBeforeANegationMayTakeALaterEvent) {
  // S_D(p0) takes the deref after the put: the first deref has a put
  // behind it, the second none.
  const char* tmpl = "F_start -> S_G(p0) -> S_D(p0) -> !S_P(p0) -> F_end";
  const auto reports = RunTemplate(tmpl,
                                   "void f(struct device_node *np)\n"
                                   "{\n"
                                   "  of_node_get(np);\n"
                                   "  use(np->a);\n"
                                   "  of_node_put(np);\n"
                                   "  use(np->b);\n"
                                   "}\n");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].object, "np");
  EXPECT_EQ(reports[0].line, 3u);
  EXPECT_EQ(reports[0].exit_line, 6u);
  EXPECT_TRUE(RunTemplate(tmpl,
                          "void f(struct device_node *np)\n"
                          "{\n"
                          "  of_node_get(np);\n"
                          "  use(np->a);\n"
                          "  of_node_put(np);\n"
                          "}\n")
                  .empty());
  // A negation in front of the step keeps it from leaving the first put
  // for the second: the puts between would be the forbidden event.
  EXPECT_TRUE(RunTemplate("F_start -> S_G(p0) -> !S_P(p0) -> S_P(p0) -> !S_D(p0) -> F_end",
                          "void f(struct device_node *np)\n"
                          "{\n"
                          "  of_node_get(np);\n"
                          "  of_node_put(np);\n"
                          "  use(np->a);\n"
                          "  of_node_put(np);\n"
                          "}\n")
                  .empty());
}

TEST(TemplateMatchTest, ErrorRegionBeforeANegationMayTakeALaterErrorNode) {
  // The first error node is the put's; B_error takes the `return -EIO`
  // after it instead.
  const char* tmpl = "F_start -> S_G(p0) -> B_error -> !S_P(p0) -> F_end";
  const auto reports = RunTemplate(tmpl,
                                   "int f(struct device_node *np)\n"
                                   "{\n"
                                   "  int ret = probe();\n"
                                   "  of_node_get(np);\n"
                                   "  if (ret < 0) {\n"
                                   "    of_node_put(np);\n"
                                   "    return -EIO;\n"
                                   "  }\n"
                                   "  of_node_put(np);\n"
                                   "  return 0;\n"
                                   "}\n");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].line, 4u);
  // A put after the only error node leaves nothing to match.
  EXPECT_TRUE(RunTemplate(tmpl,
                          "int f(struct device_node *np)\n"
                          "{\n"
                          "  int ret = probe();\n"
                          "  of_node_get(np);\n"
                          "  if (ret < 0)\n"
                          "    report(ret);\n"
                          "  of_node_put(np);\n"
                          "  return 0;\n"
                          "}\n")
                  .empty());
}

TEST(TemplateMatchTest, NegationBeforeTheBindingForbidsAnyObject) {
  // Until a step binds p0, a negated "(p0)" step forbids its event on any
  // object.
  const char* tmpl = "F_start -> !S_P(p0) -> S_G_N(p0) -> F_end";
  const char* grab =
      "  struct mdesc_handle *hp = mdesc_grab();\n"
      "  use(hp->x);\n"
      "}\n";
  EXPECT_EQ(RunTemplate(tmpl, std::string("void f(struct device_node *a)\n{\n") + grab).size(),
            1u);
  EXPECT_TRUE(RunTemplate(tmpl, std::string("void f(struct device_node *a)\n{\n"
                                            "  of_node_put(a);\n") +
                                    grab)
                  .empty());
}

TEST(TemplateMatchTest, ErrorRegionStep) {
  const char* tmpl = "F_start -> S_G_E(p0) -> !S_P(p0) -> B_error -> F_end";
  const auto reports = RunTemplate(tmpl,
                           "static int r(struct platform_device *pdev)\n"
                           "{\n"
                           "  int ret = pm_runtime_get_sync(pdev->dev);\n"
                           "  if (ret < 0)\n"
                           "    return ret;\n"
                           "  pm_runtime_put(pdev->dev);\n"
                           "  return 0;\n"
                           "}\n");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].api, "pm_runtime_get_sync");
}

TEST(TemplateMatchTest, ErrorRegionAbsentMeansNoMatch) {
  const char* tmpl = "F_start -> S_G_E -> B_error -> F_end";
  const auto reports = RunTemplate(tmpl,
                           "static void r(struct platform_device *pdev)\n"
                           "{\n"
                           "  pm_runtime_get_sync(pdev->dev);\n"
                           "  pm_runtime_put(pdev->dev);\n"
                           "}\n");
  EXPECT_TRUE(reports.empty());
}

TEST(TemplateMatchTest, ErrorRegionBeforeThePreviousStepDoesNotCount) {
  // B_error follows S_G_E: the error branch in front of the get is not one.
  // The path matcher in tests/path_matcher.h matches here, because once no
  // event is left on a path it looks for B_error from the path's start.
  EXPECT_TRUE(RunTemplate("F_start -> S_G_E -> B_error -> F_end",
                          "static void r(struct device *dev, int err)\n"
                          "{\n"
                          "  if (err < 0)\n"
                          "    report(err);\n"
                          "  pm_runtime_get_sync(dev);\n"
                          "}\n")
                  .empty());
}

TEST(TemplateMatchTest, SmartLoopStep) {
  const auto reports = RunTemplate("F_start -> M_SL -> S_ret -> F_end",
                           "static int w(struct device_node *parent)\n"
                           "{\n"
                           "  struct device_node *child;\n"
                           "  for_each_child_of_node(parent, child) {\n"
                           "    if (bad(child))\n"
                           "      return -EINVAL;\n"
                           "  }\n"
                           "  return 0;\n"
                           "}\n");
  EXPECT_EQ(reports.size(), 1u);
}

TEST(TemplateMatchTest, ApiFilterRestrictsMatches) {
  const char* code =
      "void two(struct device_node *np, struct sock *sk)\n"
      "{\n"
      "  of_node_get(np);\n"
      "  sock_hold(sk);\n"
      "}\n";
  EXPECT_EQ(RunTemplate("S_G(sock_hold) -> F_end", code).size(), 1u);
  EXPECT_EQ(RunTemplate("S_G(kref_get) -> F_end", code).size(), 0u);
}

TEST(TemplateMatchTest, FreeStep) {
  const auto reports = RunTemplate("F_start -> S_G(p0) -> S_free(p0) -> F_end",
                           "static void t(void)\n"
                           "{\n"
                           "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
                           "  kfree(np);\n"
                           "}\n");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].object, "np");
}

TEST(TemplateMatchTest, EscapeAssignStep) {
  const auto reports = RunTemplate("F_start -> S_G(p0) -> S_A_GO(p0) -> S_P(p0) -> F_end",
                           "static int c(struct ctx *ctx)\n"
                           "{\n"
                           "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
                           "  ctx->node = np;\n"
                           "  of_node_put(np);\n"
                           "  return 0;\n"
                           "}\n");
  EXPECT_EQ(reports.size(), 1u);
}

TEST(TemplateMatchTest, LockUnlockSteps) {
  const auto reports = RunTemplate("S_L -> S_P(p0) -> S_U -> F_end",
                           "static void d(struct usb_serial *serial)\n"
                           "{\n"
                           "  mutex_lock(&serial->disc_mutex);\n"
                           "  usb_serial_put(serial);\n"
                           "  mutex_unlock(&serial->disc_mutex);\n"
                           "}\n");
  EXPECT_EQ(reports.size(), 1u);
}

TEST(TemplateMatchTest, ReportCarriesTemplateSource) {
  const auto reports = RunTemplate("F_start -> S_P(p0) -> S_D(p0) -> F_end", kUadCode);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].template_path, "F_start -> S_P(p0) -> S_D(p0) -> F_end");
  EXPECT_EQ(reports[0].anti_pattern, 0);
}

}  // namespace
}  // namespace refscan
