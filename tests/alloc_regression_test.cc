// Allocation-count regression test (DESIGN.md §5.11): the whole point of the
// arena + interner + flat-CPG overhaul is that scanning a function performs a
// small, bounded number of heap allocations instead of one per AST node /
// string / event list. Global operator new is instrumented below; if a change
// reintroduces per-node or per-event heap traffic, the per-function budget
// here fails long before a benchmark would flag it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "src/checkers/engine.h"

namespace {

std::atomic<size_t> g_alloc_count{0};

}  // namespace

void* operator new(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace refscan {
namespace {

// One representative unit: refcount APIs, branches, a loop, member chains —
// enough to exercise lexer, parser, CFG, CPG and the checkers end to end.
constexpr char kUnit[] = R"(
static int probe_one(struct device_node *np)
{
    struct device *dev = of_find_device_by_node(np);
    if (!dev)
        return -ENODEV;
    if (dev->flags & FLAG_BAD) {
        of_node_put(np);
        return -EINVAL;
    }
    dev->state = 1;
    put_device(dev);
    return 0;
}

static void walk_children(struct device_node *parent)
{
    struct device_node *child;
    for_each_child_of_node(parent, child) {
        if (child->flags)
            continue;
        of_node_get(child);
    }
}

static int setup_pair(struct widget *w)
{
    kobject_get(&w->kobj);
    if (w->count > 4) {
        kobject_put(&w->kobj);
        return -EBUSY;
    }
    w->ready = 1;
    kobject_put(&w->kobj);
    return 0;
}
)";

constexpr int kFunctionsPerFile = 3;
constexpr int kFiles = 32;

ScanResult ScanOnce(const SourceTree& tree) {
  ScanOptions options;
  options.jobs = 1;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  return engine.Scan(tree);
}

TEST(AllocRegressionTest, HeapAllocationsPerFunctionStayBounded) {
  SourceTree tree;
  for (int i = 0; i < kFiles; ++i) {
    tree.Add("drivers/demo/f" + std::to_string(i) + ".c", kUnit);
  }

  // Warm-up: interner first-touches, KB discovery tables, thread-pool and
  // engine one-time setup all happen here, outside the measured window.
  const ScanResult warm = ScanOnce(tree);
  ASSERT_EQ(warm.stats.files, static_cast<size_t>(kFiles));
  ASSERT_EQ(warm.stats.functions, static_cast<size_t>(kFiles * kFunctionsPerFile));

  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const ScanResult result = ScanOnce(tree);
  const size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(result.stats.functions, static_cast<size_t>(kFiles * kFunctionsPerFile));
  const size_t per_function = allocs / result.stats.functions;

  // Budget rationale: with arena-backed AST storage, and stage 3 rebuilding
  // one function context in place for each function of a file (its Cfg,
  // Cpg, walk scratch and acquisition memo keep their capacity), a function
  // costs its share of the file's containers plus its own report strings,
  // not one allocation per node or event. Measured 37/function in the
  // RelWithDebInfo build (63 before contexts were rebuilt in place); the
  // ceiling fails the per-function-context form and catches any per-node
  // or per-event regression, which multiplies the count.
  constexpr size_t kPerFunctionBudget = 50;
  EXPECT_LE(per_function, kPerFunctionBudget)
      << "scan performed " << allocs << " heap allocations for "
      << result.stats.functions << " functions (" << per_function
      << "/function); arena/interner regression?";
}

}  // namespace
}  // namespace refscan
