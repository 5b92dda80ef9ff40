// Tolerant recursive-descent parser for the kernel-C subset.
//
// Design goals (mirroring the paper's front end, §6.1):
//   * Never fail on a file: unparseable regions degrade to kError statements
//     with statement-level resynchronisation (skip to ';' or a balancing
//     '}'), so one exotic construct cannot hide the rest of a function.
//   * No preprocessing: macros are captured as definitions (for smartloop
//     discovery) and macro *loops* such as `for_each_child_of_node(...) { }`
//     are recognised syntactically as loop statements.
//   * Keep what the checkers need — calls, assignments, member access,
//     control flow, labels/goto, struct fields, designated initializers of
//     ops structs — and flatten the rest.

#ifndef REFSCAN_AST_PARSER_H_
#define REFSCAN_AST_PARSER_H_

#include "src/ast/ast.h"
#include "src/support/source.h"

namespace refscan {

struct ParseOptions {
  // Statements nested deeper than this are flattened to kError, and
  // expressions nested deeper to one kError node (stack safety on
  // adversarial inputs); the two nestings are counted apart. With
  // `depth_fatal` set, exceeding the cap raises ResourceLimitError instead —
  // the engine's sandbox quarantines the file with an explicit
  // kResourceLimit failure rather than silently degrading.
  int max_depth = 200;
  bool depth_fatal = false;
  // AST node budget (statements + expressions); 0 = unlimited. Exceeding it
  // raises ResourceLimitError.
  size_t max_nodes = 0;
};

// Parses one file into a TranslationUnit; always returns a unit (possibly
// with kError nodes) in the default configuration. Three exceptions to
// "never throws", all opted into by the caller and converted to quarantined
// FileFailures by the engine's per-file sandbox: ResourceLimitError from
// the depth/node caps above, DeadlineExceeded from an armed ScopedDeadline
// (polled once per statement), and FaultInjected from the `parser.parse`
// fault-injection site.
TranslationUnit ParseFile(const SourceFile& file, const ParseOptions& options = {});

// A standalone parsed expression plus the Arena that owns its nodes.
// Smart-pointer-ish: keep the holder alive while the expression is in use.
class ParsedExpr {
 public:
  ParsedExpr() = default;
  ParsedExpr(std::shared_ptr<Arena> arena, ExprPtr root)
      : arena_(std::move(arena)), root_(root) {}

  const Expr* get() const { return root_; }
  const Expr& operator*() const { return *root_; }
  const Expr* operator->() const { return root_; }
  explicit operator bool() const { return root_ != nullptr; }
  friend bool operator==(const ParsedExpr& p, std::nullptr_t) { return p.root_ == nullptr; }

 private:
  std::shared_ptr<Arena> arena_;
  ExprPtr root_ = nullptr;
};

// Parses a standalone expression (tests and tools).
ParsedExpr ParseExpression(std::string_view text);

// Parses a standalone function body snippet wrapped as `void f() { ... }`
// and returns the unit (tests and examples).
TranslationUnit ParseSnippet(std::string_view body_text);

}  // namespace refscan

#endif  // REFSCAN_AST_PARSER_H_
