// Unit tests for the refcounting knowledge base: built-in catalogue,
// structure-parser discovery, API classification and smartloop discovery.

#include <gtest/gtest.h>

#include "src/ast/parser.h"
#include "src/checkers/engine.h"
#include "src/kb/kb.h"
#include "src/support/source.h"

namespace refscan {
namespace {

TranslationUnit Parse(std::string text) {
  SourceFile file("t.c", std::move(text));
  return ParseFile(file);
}

TEST(KbBuiltInTest, GeneralApis) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const RefApiInfo* inc = kb.FindApi("kref_get");
  ASSERT_NE(inc, nullptr);
  EXPECT_EQ(inc->direction, RefDirection::kIncrease);
  EXPECT_EQ(inc->category, ApiCategory::kGeneral);
  const RefApiInfo* dec = kb.FindApi("kobject_put");
  ASSERT_NE(dec, nullptr);
  EXPECT_EQ(dec->direction, RefDirection::kDecrease);
}

TEST(KbBuiltInTest, ReturnErrorDeviants) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const RefApiInfo* api = kb.FindApi("pm_runtime_get_sync");
  ASSERT_NE(api, nullptr);
  EXPECT_TRUE(api->returns_error);
  EXPECT_EQ(api->direction, RefDirection::kIncrease);
  const RefApiInfo* kobj = kb.FindApi("kobject_init_and_add");
  ASSERT_NE(kobj, nullptr);
  EXPECT_TRUE(kobj->returns_error);
}

TEST(KbBuiltInTest, ReturnNullDeviants) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const RefApiInfo* api = kb.FindApi("mdesc_grab");
  ASSERT_NE(api, nullptr);
  EXPECT_TRUE(api->may_return_null);
  EXPECT_TRUE(api->returns_object);
}

TEST(KbBuiltInTest, FindLikeApisAreHiddenAndConsume) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const RefApiInfo* api = kb.FindApi("of_find_matching_node");
  ASSERT_NE(api, nullptr);
  EXPECT_TRUE(api->hidden);
  EXPECT_TRUE(api->returns_object);
  EXPECT_EQ(api->category, ApiCategory::kEmbedded);
  EXPECT_EQ(api->consumed_param, 0);  // decrements `from`
  const RefApiInfo* parse = kb.FindApi("of_parse_phandle");
  ASSERT_NE(parse, nullptr);
  EXPECT_EQ(parse->consumed_param, -1);
}

TEST(KbBuiltInTest, SmartLoops) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const SmartLoopInfo* loop = kb.FindSmartLoop("for_each_matching_node");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->iterator_arg, 0);
  const SmartLoopInfo* child = kb.FindSmartLoop("for_each_child_of_node");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->iterator_arg, 1);  // (parent, child)
  EXPECT_EQ(kb.FindSmartLoop("list_for_each_entry"), nullptr);
}

TEST(KbHelpersTest, FreeLockUnlock) {
  EXPECT_TRUE(KnowledgeBase::IsFreeFunction(Intern("kfree")));
  EXPECT_TRUE(KnowledgeBase::IsFreeFunction(Intern("kvfree")));
  EXPECT_FALSE(KnowledgeBase::IsFreeFunction(Intern("of_node_put")));
  EXPECT_TRUE(KnowledgeBase::IsLockFunction(Intern("mutex_lock")));
  EXPECT_TRUE(KnowledgeBase::IsUnlockFunction(Intern("mutex_unlock")));
  EXPECT_FALSE(KnowledgeBase::IsLockFunction(Intern("mutex_unlock")));
}

TEST(KbKeywordsTest, NameSoundsLikeRefcounting) {
  EXPECT_TRUE(NameSoundsLikeRefcounting("of_node_get"));
  EXPECT_TRUE(NameSoundsLikeRefcounting("usb_serial_put"));
  EXPECT_TRUE(NameSoundsLikeRefcounting("dev_hold"));
  EXPECT_TRUE(NameSoundsLikeRefcounting("mdesc_grab"));
  EXPECT_FALSE(NameSoundsLikeRefcounting("of_find_compatible_node"));
  EXPECT_FALSE(NameSoundsLikeRefcounting("usb_console_setup"));
}

TEST(KbPairsTest, OpsFieldsAndWords) {
  bool has_probe_remove = false;
  for (const auto& [a, r] : PairedOpsFields()) {
    has_probe_remove |= (a == "probe" && r == "remove");
  }
  EXPECT_TRUE(has_probe_remove);
  EXPECT_EQ(PairedReleaseWord("register"), "unregister");
  EXPECT_EQ(PairedReleaseWord("create"), "destroy");
  EXPECT_EQ(PairedReleaseWord("nonsense"), "");
}

TEST(KbDiscoveryTest, DirectRefcounterField) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "struct my_widget {\n"
      "  int id;\n"
      "  struct kref refcnt;\n"
      "};\n");
  kb.DiscoverFromUnit(unit);
  EXPECT_TRUE(kb.IsRefcountedStruct("my_widget"));
}

TEST(KbDiscoveryTest, AtomicCounterNamedRef) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "struct conn { atomic_t refcnt; };\n"
      "struct plain { atomic_t pending_io; };\n");
  kb.DiscoverFromUnit(unit);
  EXPECT_TRUE(kb.IsRefcountedStruct("conn"));
  EXPECT_FALSE(kb.IsRefcountedStruct("plain"));
}

TEST(KbDiscoveryTest, NestedWithinThreshold) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "struct level0 { struct kobject kobj; };\n"
      "struct level1 { struct level0 inner; };\n"
      "struct level2 { struct level1 inner; };\n"
      "struct level3 { struct level2 inner; };\n"
      "struct level4 { struct level3 inner; };\n");
  kb.DiscoverFromUnit(unit, /*nesting_threshold=*/3);
  EXPECT_TRUE(kb.IsRefcountedStruct("level0"));
  EXPECT_TRUE(kb.IsRefcountedStruct("level3"));
  EXPECT_FALSE(kb.IsRefcountedStruct("level4"));  // beyond the threshold
}

TEST(KbDiscoveryTest, WrapperApiClassification) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "struct foo_dev *foo_dev_get(struct foo_dev *fd)\n"
      "{\n"
      "  kref_get(&fd->ref);\n"
      "  return fd;\n"
      "}\n"
      "void foo_dev_put(struct foo_dev *fd)\n"
      "{\n"
      "  kref_put(&fd->ref, foo_dev_release);\n"
      "}\n");
  kb.DiscoverFromUnit(unit);
  const RefApiInfo* get = kb.FindApi("foo_dev_get");
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->direction, RefDirection::kIncrease);
  EXPECT_FALSE(get->hidden);  // "get" is a refcounting keyword
  EXPECT_TRUE(get->returns_object);
  const RefApiInfo* put = kb.FindApi("foo_dev_put");
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->direction, RefDirection::kDecrease);
}

TEST(KbDiscoveryTest, HiddenFindLikeApiClassification) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "struct foo_dev *foo_bus_find(struct bus *b)\n"
      "{\n"
      "  struct foo_dev *fd = bus_walk(b);\n"
      "  if (fd)\n"
      "    kref_get(&fd->ref);\n"
      "  return fd;\n"
      "}\n");
  kb.DiscoverFromUnit(unit);
  const RefApiInfo* api = kb.FindApi("foo_bus_find");
  ASSERT_NE(api, nullptr);
  EXPECT_TRUE(api->hidden);  // "find" is not a refcounting keyword
  EXPECT_EQ(api->category, ApiCategory::kEmbedded);
  EXPECT_TRUE(api->returns_object);
}

TEST(KbDiscoveryTest, TwoRoundDiscoveryIsUnitOrderInsensitive) {
  // A wrapper-of-a-wrapper split across translation units must classify
  // identically whichever unit is visited first: round one always learns the
  // inner wrapper, round two the outer one.
  SourceFile outer_file("outer.c",
                        "struct foo_dev *foo_outer_get(struct foo_dev *fd)\n"
                        "{\n"
                        "  return foo_inner_get(fd);\n"
                        "}\n");
  SourceFile inner_file("inner.c",
                        "struct foo_dev *foo_inner_get(struct foo_dev *fd)\n"
                        "{\n"
                        "  kref_get(&fd->ref);\n"
                        "  return fd;\n"
                        "}\n");
  const TranslationUnit outer = ParseFile(outer_file);
  const TranslationUnit inner = ParseFile(inner_file);

  auto classify = [](const std::vector<const TranslationUnit*>& order) {
    KnowledgeBase kb = KnowledgeBase::BuiltIn();
    for (int round = 0; round < 2; ++round) {
      for (const TranslationUnit* unit : order) {
        kb.DiscoverFromUnit(*unit);
      }
    }
    return kb;
  };

  const KnowledgeBase first = classify({&outer, &inner});
  const KnowledgeBase second = classify({&inner, &outer});
  for (const KnowledgeBase* kb : {&first, &second}) {
    const RefApiInfo* api = kb->FindApi("foo_outer_get");
    ASSERT_NE(api, nullptr);
    EXPECT_EQ(api->direction, RefDirection::kIncrease);
    EXPECT_TRUE(api->returns_object);
    EXPECT_FALSE(api->hidden);
  }
}

TEST(KbDiscoveryTest, ReturnErrorDeviantDiscovered) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "int foo_power_get(struct dev *d)\n"
      "{\n"
      "  atomic_inc(&d->usage);\n"
      "  if (resume(d) < 0)\n"
      "    return -EIO;\n"
      "  return 0;\n"
      "}\n");
  kb.DiscoverFromUnit(unit);
  const RefApiInfo* api = kb.FindApi("foo_power_get");
  ASSERT_NE(api, nullptr);
  EXPECT_TRUE(api->returns_error);
}

TEST(KbDiscoveryTest, ReturnNullDeviantDiscovered) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "struct md *md_grab(void)\n"
      "{\n"
      "  if (!global_md)\n"
      "    return NULL;\n"
      "  refcount_inc(&global_md->refs);\n"
      "  return global_md;\n"
      "}\n");
  kb.DiscoverFromUnit(unit);
  const RefApiInfo* api = kb.FindApi("md_grab");
  ASSERT_NE(api, nullptr);
  EXPECT_TRUE(api->may_return_null);
}

TEST(KbDiscoveryTest, ConsumedParamDiscovered) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "struct node *my_find_next(struct node *from)\n"
      "{\n"
      "  struct node *np = walk(from);\n"
      "  if (np)\n"
      "    of_node_get(np);\n"
      "  of_node_put(from);\n"
      "  return np;\n"
      "}\n");
  kb.DiscoverFromUnit(unit);
  const RefApiInfo* api = kb.FindApi("my_find_next");
  ASSERT_NE(api, nullptr);
  EXPECT_EQ(api->direction, RefDirection::kIncrease);
  EXPECT_EQ(api->consumed_param, 0);
}

TEST(KbDiscoveryTest, SmartLoopMacroDiscovered) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "#define my_for_each_widget(w) \\\n"
      "  for (w = my_find_next(NULL); w; w = my_find_next(w))\n"
      "struct node *my_find_next(struct node *from)\n"
      "{\n"
      "  struct node *np = walk(from);\n"
      "  if (np)\n"
      "    of_node_get(np);\n"
      "  of_node_put(from);\n"
      "  return np;\n"
      "}\n");
  kb.DiscoverFromUnit(unit);
  kb.DiscoverFromUnit(unit);  // second round: macro sees the discovered API
  const SmartLoopInfo* loop = kb.FindSmartLoop("my_for_each_widget");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->embedded_api, "my_find_next");
  EXPECT_EQ(loop->iterator_arg, 0);
}

TEST(KbDiscoveryTest, NonRefcountingFunctionNotClassified) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "int plain_math(int a, int b)\n"
      "{\n"
      "  return a * b + 1;\n"
      "}\n");
  kb.DiscoverFromUnit(unit);
  EXPECT_EQ(kb.FindApi("plain_math"), nullptr);
}

// ------------------------------------------------------------- P10-P12 KB

TEST(KbTestsZeroTest, DecAndTestBuiltinsCarryTheFlag) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  for (const char* name :
       {"refcount_dec_and_test", "atomic_dec_and_test", "atomic_long_dec_and_test"}) {
    const RefApiInfo* api = kb.FindApi(name);
    ASSERT_NE(api, nullptr) << name;
    EXPECT_EQ(api->direction, RefDirection::kDecrease) << name;
    EXPECT_TRUE(api->tests_zero) << name;
  }
  // Plain decrements do not test-and-report.
  const RefApiInfo* put = kb.FindApi("kref_put");
  ASSERT_NE(put, nullptr);
  EXPECT_FALSE(put->tests_zero);
}

TEST(KbRegistryTest, RefcountFieldsDiscoveredFromStructTypes) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto unit = Parse(
      "struct conn { refcount_t usage; int id; };\n"
      "struct stats { unsigned long hits; int depth; };\n");
  kb.DiscoverFromUnit(unit);
  EXPECT_TRUE(kb.IsRefcountField(Intern("usage")));
  // Plain integer counters never register — the P10 zero-FP guarantee.
  EXPECT_FALSE(kb.IsRefcountField(Intern("hits")));
  EXPECT_FALSE(kb.IsRefcountField(Intern("depth")));
  EXPECT_FALSE(kb.IsRefcountField(Intern("id")));
}

TEST(KbRegistryTest, FreeApiCoversKernelListPlusRegistrations) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  EXPECT_TRUE(kb.IsFreeApi(Intern("kfree")));
  EXPECT_FALSE(kb.IsFreeApi(Intern("g_free")));
  kb.AddFreeFunction("g_free");
  EXPECT_TRUE(kb.IsFreeApi(Intern("g_free")));
  EXPECT_TRUE(kb.extra_free_functions().contains("g_free"));
  // The static kernel classifier is unchanged by instance registrations.
  EXPECT_FALSE(KnowledgeBase::IsFreeFunction(Intern("g_free")));
}

TEST(KbDialectTest, KnownDialectsAreSorted) {
  const std::vector<std::string>& dialects = KnownDialects();
  ASSERT_EQ(dialects.size(), 2u);
  EXPECT_EQ(dialects[0], "glib");
  EXPECT_EQ(dialects[1], "uacpi");
}

TEST(KbDialectTest, UacpiCatalogue) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  ASSERT_TRUE(ApplyDialect(kb, "uacpi"));
  const RefApiInfo* ref = kb.FindApi("uacpi_shareable_ref");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->direction, RefDirection::kIncrease);
  const RefApiInfo* unref = kb.FindApi("uacpi_shareable_unref");
  ASSERT_NE(unref, nullptr);
  EXPECT_EQ(unref->direction, RefDirection::kDecrease);
  EXPECT_TRUE(unref->tests_zero);  // returns the previous count
  EXPECT_TRUE(kb.IsRefcountedStruct("uacpi_shareable"));
  EXPECT_TRUE(kb.IsRefcountField(Intern("reference_count")));
  EXPECT_TRUE(kb.IsFreeApi(Intern("uacpi_free")));
  EXPECT_TRUE(kb.IsFreeApi(Intern("uacpi_kernel_free")));
}

TEST(KbDialectTest, GlibCatalogue) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  ASSERT_TRUE(ApplyDialect(kb, "glib"));
  const RefApiInfo* ref = kb.FindApi("g_object_ref");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->direction, RefDirection::kIncrease);
  EXPECT_TRUE(ref->returns_object);  // g_object_ref returns its argument
  const RefApiInfo* dat = kb.FindApi("g_atomic_int_dec_and_test");
  ASSERT_NE(dat, nullptr);
  EXPECT_TRUE(dat->tests_zero);
  EXPECT_TRUE(kb.IsRefcountField(Intern("ref_count")));
  EXPECT_TRUE(kb.IsFreeApi(Intern("g_free")));
}

TEST(KbDialectTest, UnknownDialectIsRejectedWithoutSideEffects) {
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  EXPECT_FALSE(ApplyDialect(kb, "qt"));
  EXPECT_EQ(kb.FindApi("g_object_ref"), nullptr);
  EXPECT_EQ(kb.FindApi("uacpi_shareable_ref"), nullptr);
  EXPECT_TRUE(kb.extra_free_functions().empty());
}

TEST(ApiFamilyTest, Families) {
  EXPECT_EQ(ApiFamily("of_node_get"), "of-node");
  EXPECT_EQ(ApiFamily("of_node_put"), "of-node");
  EXPECT_EQ(ApiFamily("of_find_compatible_node"), "of-node");
  EXPECT_EQ(ApiFamily("of_parse_phandle"), "of-node");
  EXPECT_EQ(ApiFamily("pm_runtime_get_sync"), "pm-runtime");
  EXPECT_EQ(ApiFamily("pm_runtime_put"), "pm-runtime");
  EXPECT_EQ(ApiFamily("get_device"), "device");
  EXPECT_EQ(ApiFamily("put_device"), "device");
  EXPECT_EQ(ApiFamily("bus_find_device"), "device");
  EXPECT_EQ(ApiFamily("usb_serial_get"), ApiFamily("usb_serial_put"));
  EXPECT_EQ(ApiFamily("dev_hold"), ApiFamily("dev_put"));
  EXPECT_NE(ApiFamily("of_node_put"), ApiFamily("put_device"));
}

}  // namespace
}  // namespace refscan
