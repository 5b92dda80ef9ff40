// Unit tests for the CPG semantic-event extraction.

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "src/ast/parser.h"
#include "src/cpg/cpg.h"
#include "src/support/source.h"

namespace refscan {
namespace {

struct Pipeline {
  TranslationUnit unit;
  Cfg cfg;
  Cpg cpg;
};

// Keeps units/cfgs alive; returns a stable pipeline for the first function.
Pipeline& Build(std::string text, const KnowledgeBase& kb) {
  static std::deque<Pipeline> keep;
  keep.push_back(Pipeline{});
  Pipeline& p = keep.back();
  SourceFile file("t.c", std::move(text));
  p.unit = ParseFile(file);
  EXPECT_FALSE(p.unit.functions.empty());
  p.cfg = BuildCfg(p.unit.functions[0]);
  p.cpg = BuildCpg(p.cfg, kb);
  return p;
}

std::vector<const SemEvent*> AllEvents(const Pipeline& p) {
  std::vector<const SemEvent*> out;
  for (size_t i = 0; i < p.cpg.size(); ++i) {
    for (const SemEvent& ev : p.cpg.events(static_cast<int>(i))) {
      out.push_back(&ev);
    }
  }
  return out;
}

const SemEvent* FindEvent(const Pipeline& p, SemOp op, std::string_view object = "") {
  for (const SemEvent* ev : AllEvents(p)) {
    if (ev->op == op && (object.empty() || ev->object == object)) {
      return ev;
    }
  }
  return nullptr;
}

TEST(ObjectSpellingTest, Shapes) {
  auto spell = [](std::string_view text) {
    const ParsedExpr e = ParseExpression(text);
    return ObjectSpelling(*e);
  };
  EXPECT_EQ(spell("np"), "np");
  EXPECT_EQ(spell("crc->dev"), "crc->dev");
  EXPECT_EQ(spell("pdev->dev.of_node"), "pdev->dev.of_node");
  EXPECT_EQ(spell("&serial->kref"), "serial->kref");  // & stripped
  EXPECT_EQ(spell("(struct device *)data"), "data");  // cast stripped
  EXPECT_EQ(spell("*pp"), "*pp");
  EXPECT_EQ(spell("NULL"), "");
  EXPECT_EQ(spell("f(x)"), "");
  EXPECT_EQ(spell("a + b"), "");
}

TEST(ObjectRootTest, Shapes) {
  EXPECT_EQ(RootSymbol(Intern("serial->kref")), "serial");
  EXPECT_EQ(RootSymbol(Intern("np")), "np");
  EXPECT_EQ(RootSymbol(Intern("*pp")), "pp");
  EXPECT_EQ(RootSymbol(Intern("a.b.c")), "a");
}

TEST(CpgTest, IncreaseEventFromSpecificApi) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build("void f(struct device_node *np) { of_node_get(np); }", kb);
  const SemEvent* ev = FindEvent(p, SemOp::kIncrease, "np");
  ASSERT_NE(ev, nullptr);
  ASSERT_NE(ev->api, nullptr);
  EXPECT_EQ(ev->api->name, "of_node_get");
}

TEST(CpgTest, DecreaseEventObjectThroughAddressOf) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build("void f(struct s *x) { kref_put(&x->ref, rel); }", kb);
  const SemEvent* ev = FindEvent(p, SemOp::kDecrease);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->object, "x->ref");
}

TEST(CpgTest, FindLikeInitializerBindsResultObject) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(void) {\n"
      "  struct device_node *np = of_find_node_by_path(\"/cpus\");\n"
      "}\n",
      kb);
  const SemEvent* inc = FindEvent(p, SemOp::kIncrease, "np");
  ASSERT_NE(inc, nullptr);
  EXPECT_EQ(inc->api->name, "of_find_node_by_path");
}

TEST(CpgTest, FindLikeAssignmentBindsResultObject) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(struct device_node *np) {\n"
      "  np = of_find_node_by_path(\"/cpus\");\n"
      "}\n",
      kb);
  const SemEvent* inc = FindEvent(p, SemOp::kIncrease, "np");
  ASSERT_NE(inc, nullptr);
}

TEST(CpgTest, ConsumedParamEmitsDecrease) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(struct device_node *from) {\n"
      "  struct device_node *np = of_find_matching_node(from, matches);\n"
      "}\n",
      kb);
  const SemEvent* dec = FindEvent(p, SemOp::kDecrease, "from");
  ASSERT_NE(dec, nullptr);
  EXPECT_EQ(dec->api->name, "of_find_matching_node");
  const SemEvent* inc = FindEvent(p, SemOp::kIncrease, "np");
  ASSERT_NE(inc, nullptr);
}

TEST(CpgTest, DerefEventsFromMemberChain) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build("void f(struct s *a) { use(a->b->c); }", kb);
  EXPECT_NE(FindEvent(p, SemOp::kDeref, "a"), nullptr);
  EXPECT_NE(FindEvent(p, SemOp::kDeref, "a->b"), nullptr);
}

TEST(CpgTest, AddressOfMemberInCallStillDereferencesBase) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build("void f(struct usb_serial *serial) { mutex_unlock(&serial->disc_mutex); }", kb);
  const SemEvent* unlock = FindEvent(p, SemOp::kUnlock);
  ASSERT_NE(unlock, nullptr);
  EXPECT_EQ(unlock->object, "serial->disc_mutex");
}

TEST(CpgTest, LockAndFreeEvents) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(struct s *x) {\n"
      "  mutex_lock(&x->lock);\n"
      "  kfree(x);\n"
      "}\n",
      kb);
  EXPECT_NE(FindEvent(p, SemOp::kLock), nullptr);
  const SemEvent* free_ev = FindEvent(p, SemOp::kFree, "x");
  ASSERT_NE(free_ev, nullptr);
}

TEST(CpgTest, NullCheckEventsFromConditions) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(struct s *a, struct s *b, struct s *c) {\n"
      "  if (!a) return;\n"
      "  if (b == NULL) return;\n"
      "  if (c) use(c);\n"
      "}\n",
      kb);
  const SemEvent* a = FindEvent(p, SemOp::kNullCheck, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->checks_null_true_branch);
  const SemEvent* b = FindEvent(p, SemOp::kNullCheck, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->checks_null_true_branch);
  const SemEvent* c = FindEvent(p, SemOp::kNullCheck, "c");
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->checks_null_true_branch);
}

TEST(CpgTest, ReturnEventCarriesObject) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build("struct s *f(struct s *x) { return x; }", kb);
  const SemEvent* ret = FindEvent(p, SemOp::kReturn);
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(ret->object, "x");
}

TEST(CpgTest, EscapeFlagOnGlobalAssignment) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(struct s *x) {\n"
      "  struct s *local;\n"
      "  local = x;\n"
      "  g_cache = x;\n"
      "}\n",
      kb);
  bool local_escapes = true;
  bool global_escapes = false;
  for (const SemEvent* ev : AllEvents(p)) {
    if (ev->op == SemOp::kAssign && ev->object == "local") {
      local_escapes = ev->escapes;
    }
    if (ev->op == SemOp::kAssign && ev->object == "g_cache") {
      global_escapes = ev->escapes;
    }
  }
  EXPECT_FALSE(local_escapes);
  EXPECT_TRUE(global_escapes);
}

TEST(CpgTest, EscapeFlagOnOutParamStore) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(struct ctx *ctx, struct s *x) {\n"
      "  ctx->cached = x;\n"
      "}\n",
      kb);
  const SemEvent* assign = FindEvent(p, SemOp::kAssign, "ctx->cached");
  ASSERT_NE(assign, nullptr);
  EXPECT_TRUE(assign->escapes);
  EXPECT_EQ(assign->aux, "x");
}

TEST(CpgTest, SmartLoopHeadEvent) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(struct device_node *parent) {\n"
      "  struct device_node *child;\n"
      "  for_each_child_of_node(parent, child) {\n"
      "    use(child);\n"
      "  }\n"
      "}\n",
      kb);
  const SemEvent* head = FindEvent(p, SemOp::kLoopHead);
  ASSERT_NE(head, nullptr);
  ASSERT_NE(head->loop, nullptr);
  EXPECT_EQ(head->loop->name, "for_each_child_of_node");
  EXPECT_EQ(head->object, "child");  // iterator_arg = 1
}

TEST(CpgTest, UnknownMacroLoopHasNullLoopInfo) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(void) {\n"
      "  list_for_each_entry(evt, head, node) { use(evt); }\n"
      "}\n",
      kb);
  const SemEvent* head = FindEvent(p, SemOp::kLoopHead);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->loop, nullptr);
}

TEST(CpgTest, ParamsAndLocalsCollected) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  auto& p = Build(
      "void f(struct s *a, int b) {\n"
      "  int x = 0;\n"
      "  struct s *y;\n"
      "}\n",
      kb);
  EXPECT_TRUE(p.cpg.params().contains("a"));
  EXPECT_TRUE(p.cpg.params().contains("b"));
  EXPECT_TRUE(p.cpg.locals().contains("x"));
  EXPECT_TRUE(p.cpg.locals().contains("y"));
  EXPECT_FALSE(p.cpg.locals().contains("a"));
}

}  // namespace
}  // namespace refscan
