#include "src/ast/parser.h"

#include <cctype>

#include "src/lexer/lexer.h"
#include "src/support/faultinject.h"
#include "src/support/governor.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

// Tokens that can start/continue a type spelling.
bool IsTypeKeyword(std::string_view text) {
  // Probed for nearly every keyword token while scanning declarations;
  // dispatch on (length, first char) instead of a linear word list.
  switch (text.size()) {
    case 3:
      return text == "int";
    case 4:
      return text == "void" || text == "char" || text == "long" || text == "enum";
    case 5:
      switch (text[0]) {
        case 's': return text == "short";
        case 'f': return text == "float";
        case 'u': return text == "union";
        case 'c': return text == "const";
        case '_': return text == "_Bool";
        default: return false;
      }
    case 6:
      switch (text[0]) {
        case 'd': return text == "double";
        case 's': return text == "signed" || text == "struct" || text == "static";
        case 'e': return text == "extern";
        case 'i': return text == "inline";
        case 't': return text == "typeof";
        default: return false;
      }
    case 7:
      return text == "_Atomic";
    case 8:
      return text == "unsigned" || text == "volatile" || text == "register";
    case 10:
      return text == "__typeof__";
    default:
      return false;
  }
}

// Identifiers that commonly act as typedef names in kernel code; the parser
// also uses shape heuristics (ident ident / ident '*' ident), so this list
// only needs to cover declarations like `u32 x;`.
bool LooksLikeTypedefName(std::string_view text) {
  // Runs for nearly every identifier the statement/cast heuristics look at,
  // so it dispatches on length instead of scanning a name list.
  const size_t n = text.size();
  if (n >= 2 && text[n - 1] == 't' && text[n - 2] == '_') {
    return true;
  }
  switch (n) {
    case 2:  // u8 s8
      return (text[0] == 'u' || text[0] == 's') && text[1] == '8';
    case 3:  // u16 u32 u64 s16 s32 s64
      if (text[0] != 'u' && text[0] != 's') {
        return false;
      }
      return (text[1] == '1' && text[2] == '6') || (text[1] == '3' && text[2] == '2') ||
             (text[1] == '6' && text[2] == '4');
    case 4:
      return text == "bool";
    default:
      return false;
  }
}

class Parser {
 public:
  explicit Parser(const SourceFile& file)
      : tokens_(Tokenize(file, &splices_)), cur_(tokens_), arena_(std::make_shared<Arena>()) {
    unit_.path = file.path();
    unit_.arena = arena_;
  }

  TranslationUnit Parse() {
    while (!cur_.AtEnd()) {
      CheckDeadline("parser");
      ParseTopLevel();
    }
    return std::move(unit_);
  }

  // Exposed for ParseExpression().
  ExprPtr ParseFullExpr() { return ParseAssignment(); }
  std::shared_ptr<Arena> TakeArena() { return std::move(arena_); }

 private:
  // ---------------------------------------------------------------- tokens

  const Token& Peek(size_t ahead = 0) const { return cur_.Peek(ahead); }
  const Token& Next() { return cur_.Next(); }
  bool Eat(std::string_view text) { return cur_.Eat(text); }
  uint32_t Line() const { return Peek().line; }

  // Skips tokens until (and including) a ';' at brace depth zero, or until a
  // '}' that would close the current scope (left unconsumed).
  void SyncToStatementEnd() {
    ++recovery_events_;
    int depth = 0;
    while (!cur_.AtEnd()) {
      const Token& t = Peek();
      if (t.Is("{")) {
        ++depth;
      } else if (t.Is("}")) {
        if (depth == 0) {
          return;
        }
        --depth;
        if (depth == 0) {
          Next();
          // A closing brace at depth 0 also ends a statement (e.g. a
          // compound we failed to parse).
          if (Peek().Is(";")) {
            Next();
          }
          return;
        }
      } else if (t.Is(";") && depth == 0) {
        Next();
        return;
      }
      Next();
    }
  }

  // Skips a balanced token group starting at the current '(' / '{' / '['.
  void SkipBalanced() {
    const std::string_view open = Peek().text;
    std::string_view close;
    if (open == "(") {
      close = ")";
    } else if (open == "{") {
      close = "}";
    } else if (open == "[") {
      close = "]";
    } else {
      Next();
      return;
    }
    int depth = 0;
    while (!cur_.AtEnd()) {
      const Token& t = Next();
      if (t.text == open) {
        ++depth;
      } else if (t.text == close) {
        if (--depth == 0) {
          return;
        }
      }
    }
  }

  // GNU declaration noise: `__attribute__((...))` soup, `__extension__`,
  // `__restrict` qualifiers. Kernel headers drape these over nearly every
  // declaration; they carry nothing the checkers need but their parentheses
  // derail the declarator heuristics, so they are skipped wherever a
  // declaration may continue. Returns true if anything was consumed.
  bool SkipDeclNoise() {
    bool skipped = false;
    while (!cur_.AtEnd()) {
      const Token& t = Peek();
      if (t.IsIdent("__attribute__") || t.IsIdent("__attribute")) {
        Next();
        if (Peek().Is("(")) {
          SkipBalanced();
        }
        skipped = true;
        continue;
      }
      if (t.IsIdent("__extension__") || t.IsIdent("__restrict") || t.IsIdent("__restrict__")) {
        Next();
        skipped = true;
        continue;
      }
      break;
    }
    return skipped;
  }

  // True for type keywords that take a parenthesised operand the declarator
  // heuristics must step over: `typeof(expr)`, `__typeof__(expr)`,
  // `_Atomic(type)`.
  static bool IsParenTypeKeyword(std::string_view text) {
    return text == "typeof" || text == "__typeof__" || text == "_Atomic";
  }

  // Index of the '}' matching the '{' at token index `open_pos`, counting
  // raw punct braces only (string/char/preproc token text never counts), or
  // tokens_.size() when the file runs out before the brace closes.
  size_t FindMatchingBrace(size_t open_pos) const {
    int depth = 0;
    for (size_t i = open_pos; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (!t.Is(TokenKind::kPunct)) {
        continue;
      }
      if (t.text == "{") {
        ++depth;
      } else if (t.text == "}" && --depth == 0) {
        return i;
      }
    }
    return tokens_.size();
  }

  // ------------------------------------------------------------- top level

  void ParseTopLevel() {
    const Token& t = Peek();
    if (t.Is(TokenKind::kPreproc)) {
      ParsePreproc();
      return;
    }
    if (t.Is(";")) {
      Next();
      return;
    }
    if (t.Is("typedef")) {
      // typedef ... ; (may contain a struct body)
      while (!cur_.AtEnd() && !Peek().Is(";")) {
        if (Peek().Is("{")) {
          SkipBalanced();
        } else {
          Next();
        }
      }
      Eat(";");
      return;
    }
    if ((t.Is("struct") || t.Is("union")) &&
        ((Peek(1).Is(TokenKind::kIdentifier) && Peek(2).Is("{")) ||
         Peek(1).IsIdent("__attribute__") || Peek(1).IsIdent("__attribute"))) {
      ParseStructDef();
      return;
    }
    ParseDeclarationOrFunction();
  }

  void ParsePreproc() {
    const Token tok = Next();
    std::string_view text = tok.text;
    // Normalise continuations: replace `\`+optional trailing whitespace+
    // newline (the CRLF and `\`+spaces forms included) with a space.
    std::string joined;
    joined.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\\') {
        size_t j = i + 1;
        while (j < text.size() &&
               (text[j] == ' ' || text[j] == '\t' || text[j] == '\r')) {
          ++j;
        }
        if (j < text.size() && text[j] == '\n') {
          joined.push_back(' ');
          i = j;
          continue;
        }
      }
      joined.push_back(text[i]);
    }
    std::string_view body = Trim(joined);
    if (!body.starts_with("#")) {
      return;
    }
    body.remove_prefix(1);
    body = Trim(body);
    if (!body.starts_with("define")) {
      return;
    }
    body.remove_prefix(6);
    body = Trim(body);
    // Macro name.
    size_t i = 0;
    while (i < body.size() &&
           (std::isalnum(static_cast<unsigned char>(body[i])) != 0 || body[i] == '_')) {
      ++i;
    }
    if (i == 0) {
      return;
    }
    MacroDef macro;
    macro.name = Intern(body.substr(0, i));
    macro.line = tok.line;
    body.remove_prefix(i);
    if (!body.empty() && body.front() == '(') {
      const size_t close = body.find(')');
      if (close != std::string_view::npos) {
        for (std::string_view param : Split(body.substr(1, close - 1), ',')) {
          param = Trim(param);
          if (!param.empty()) {
            macro.params.push_back(Intern(param));
          }
        }
        body.remove_prefix(close + 1);
      }
    }
    macro.body = std::string(Trim(body));
    unit_.macros.push_back(std::move(macro));
  }

  void ParseStructDef() {
    StructDef def;
    def.line = Line();
    Next();  // struct / union
    SkipDeclNoise();  // `struct __attribute__((aligned(8))) tag { ... }`
    def.name = Intern(Next().text);
    if (!Eat("{")) {
      SyncToStatementEnd();
      return;
    }
    while (!cur_.AtEnd() && !Peek().Is("}")) {
      ParseStructField(def);
    }
    Eat("}");
    Eat(";");
    unit_.structs.push_back(std::move(def));
  }

  void ParseStructField(StructDef& def) {
    // Gather tokens until ';', tracking nesting; derive name and type.
    std::vector<Token> field_tokens;
    int depth = 0;
    while (!cur_.AtEnd()) {
      if (depth == 0 && SkipDeclNoise()) {
        continue;  // `__attribute__((packed))` etc. never joins the field
      }
      const Token& t = Peek();
      if (depth == 0 && (t.Is(";") || t.Is("}"))) {
        break;
      }
      if (t.Is("{") || t.Is("(") || t.Is("[")) {
        ++depth;
      } else if (t.Is("}") || t.Is(")") || t.Is("]")) {
        --depth;
      }
      field_tokens.push_back(Next());
    }
    Eat(";");
    if (field_tokens.empty()) {
      if (Peek().Is("}")) {
        return;
      }
      Next();  // safety: never loop without progress
      return;
    }

    // Function-pointer field: type (*name)(args)
    for (size_t i = 0; i + 2 < field_tokens.size(); ++i) {
      if (field_tokens[i].Is("(") && field_tokens[i + 1].Is("*") &&
          field_tokens[i + 2].Is(TokenKind::kIdentifier)) {
        def.fields.push_back(StructField{Intern("fnptr"), Intern(field_tokens[i + 2].text)});
        return;
      }
    }

    // Plain field: name is the last identifier before any '[' / ':'.
    size_t name_index = field_tokens.size();
    for (size_t i = field_tokens.size(); i-- > 0;) {
      if (field_tokens[i].Is(TokenKind::kIdentifier)) {
        name_index = i;
        break;
      }
      if (field_tokens[i].Is("[") || field_tokens[i].Is("]") || field_tokens[i].Is(":") ||
          field_tokens[i].Is(TokenKind::kNumber)) {
        continue;
      }
      break;
    }
    if (name_index == field_tokens.size()) {
      return;
    }
    std::string type;
    for (size_t i = 0; i < name_index; ++i) {
      if (!type.empty()) {
        type.push_back(' ');
      }
      type.append(field_tokens[i].text);
    }
    def.fields.push_back(StructField{Intern(type), Intern(field_tokens[name_index].text)});
  }

  // Parses either a function definition or a global variable declaration.
  void ParseDeclarationOrFunction() {
    const size_t start_pos = cur_.position();
    const uint32_t line = Line();
    bool is_static = false;

    // Type prefix: keywords, struct/union/enum tag, identifiers, '*'.
    std::string type_text;
    std::string name;
    while (!cur_.AtEnd()) {
      if (SkipDeclNoise()) {
        continue;
      }
      const Token& t = Peek();
      if (t.Is("static")) {
        is_static = true;
        Next();
        continue;
      }
      if (t.Is(TokenKind::kKeyword) && IsTypeKeyword(t.text)) {
        const std::string_view keyword = t.text;
        if (!type_text.empty()) {
          type_text.push_back(' ');
        }
        type_text.append(keyword);
        Next();
        if (IsParenTypeKeyword(keyword) && Peek().Is("(")) {
          SkipBalanced();  // typeof(...) operand: opaque to the checkers
        }
        continue;
      }
      if (t.Is("*")) {
        type_text.append("*");
        Next();
        continue;
      }
      if (t.Is(TokenKind::kIdentifier)) {
        // Lookahead decides whether this identifier is part of the type or
        // is the declarator name.
        const Token& after = Peek(1);
        if (after.Is(TokenKind::kIdentifier) || after.Is("*")) {
          if (!type_text.empty()) {
            type_text.push_back(' ');
          }
          type_text.append(t.text);
          Next();
          continue;
        }
        name = std::string(t.text);
        Next();
        break;
      }
      break;
    }

    if (name.empty()) {
      // Could not find a declarator; resynchronise.
      if (cur_.position() == start_pos) {
        Next();
      }
      SyncToStatementEnd();
      return;
    }

    if (Peek().Is("(")) {
      ParseFunctionRest(std::move(type_text), std::move(name), line, is_static);
      return;
    }
    ParseGlobalRest(std::move(type_text), std::move(name), line);
  }

  void ParseFunctionRest(std::string return_type, std::string name, uint32_t line,
                         bool is_static) {
    FunctionDef fn;
    fn.return_type = Intern(return_type);
    fn.name = Intern(name);
    fn.line = line;
    fn.is_static = is_static;

    // Parameters.
    Eat("(");
    std::vector<Token> param_tokens;
    int depth = 1;
    while (!cur_.AtEnd() && depth > 0) {
      const Token& t = Peek();
      if (t.Is("(")) {
        ++depth;
      } else if (t.Is(")")) {
        --depth;
        if (depth == 0) {
          Next();
          break;
        }
      }
      param_tokens.push_back(Next());
    }
    fn.params = SplitParams(param_tokens);

    // Attribute soup between the parameter list and the body:
    // `int foo(void) __attribute__((section(".init"))) { ... }`.
    SkipDeclNoise();

    if (Peek().Is("{")) {
      // Function-granular error recovery (DESIGN.md §5.15): remember where
      // this body's matching top-level '}' sits, parse tolerantly, and if
      // parsing either derailed (stopped anywhere but just past that brace)
      // or burned through the per-function error budget, quarantine only
      // this function — resync to the close brace and keep going with the
      // rest of the file, exactly as if the function had been deleted.
      const size_t open_pos = cur_.position();
      const size_t close_pos = FindMatchingBrace(open_pos);
      depth_ = 0;
      expr_depth_ = 0;
      recovery_events_ = 0;
      fn.body = ParseCompound();
      const bool derailed = cur_.position() != close_pos + 1 && close_pos < tokens_.size();
      const bool exhausted = recovery_events_ > kFunctionErrorBudget;
      if (derailed || exhausted) {
        if (close_pos < tokens_.size()) {
          cur_.set_position(close_pos + 1);
        }
        DegradedFunction bad;
        bad.name = name;
        bad.line = line;
        bad.what = exhausted
                       ? StrFormat("%zu unparseable statements in body", recovery_events_)
                       : "parse derailed inside body";
        unit_.degraded.push_back(std::move(bad));
        return;
      }
      unit_.functions.push_back(std::move(fn));
      return;
    }
    // Forward declaration (or attribute soup): skip to ';'.
    SyncToStatementEnd();
  }

  // A handful of recovery events inside one body is routine tolerant
  // parsing (skipped macro statement, odd initializer); a body that keeps
  // tripping recovery is noise the checkers would hallucinate over, so it
  // gets quarantined instead. The budget sits well above what clean kernel
  // code produces and well below what genuinely unparseable soup produces.
  static constexpr size_t kFunctionErrorBudget = 6;

  // Statement and expression nesting cap (counted apart), for stack safety
  // on adversarial inputs: a statement past it becomes kError plus a
  // resync, an expression one kError node.
  static constexpr int kMaxNesting = 200;

  static std::vector<Param> SplitParams(const std::vector<Token>& tokens) {
    std::vector<Param> params;
    std::vector<const Token*> current;
    int depth = 0;
    auto flush = [&]() {
      if (current.empty()) {
        return;
      }
      std::string type;
      std::string name;
      // Name = last identifier; type = everything else.
      size_t name_index = current.size();
      for (size_t i = current.size(); i-- > 0;) {
        if (current[i]->Is(TokenKind::kIdentifier)) {
          name_index = i;
          break;
        }
      }
      for (size_t i = 0; i < current.size(); ++i) {
        if (i == name_index) {
          continue;
        }
        if (!type.empty()) {
          type.push_back(' ');
        }
        type.append(current[i]->text);
      }
      if (name_index < current.size()) {
        name = std::string(current[name_index]->text);
      }
      // "void" alone is not a parameter.
      if (!(name.empty() && type == "void") && !(type.empty() && name == "void")) {
        params.push_back(Param{Intern(type), Intern(name)});
      }
      current.clear();
    };
    for (const Token& t : tokens) {
      if (t.Is("(") || t.Is("[")) {
        ++depth;
      } else if (t.Is(")") || t.Is("]")) {
        --depth;
      } else if (t.Is(",") && depth == 0) {
        flush();
        continue;
      }
      current.push_back(&t);
    }
    flush();
    return params;
  }

  void ParseGlobalRest(std::string type, std::string name, uint32_t line) {
    GlobalVar var;
    var.type = Intern(type);
    var.name = Intern(name);
    var.line = line;

    // Optional array suffix.
    while (Peek().Is("[")) {
      SkipBalanced();
    }

    if (Eat("=")) {
      if (Peek().Is("{")) {
        ParseDesignatedInits(var);
      } else {
        // Scalar initializer: skip its tokens.
        while (!cur_.AtEnd() && !Peek().Is(";") && !Peek().Is(",")) {
          if (Peek().Is("(") || Peek().Is("{")) {
            SkipBalanced();
          } else {
            Next();
          }
        }
      }
    }
    SyncToStatementEnd();
    unit_.globals.push_back(std::move(var));
  }

  void ParseDesignatedInits(GlobalVar& var) {
    Eat("{");
    int depth = 1;
    while (!cur_.AtEnd() && depth > 0) {
      const Token& t = Peek();
      if (t.Is("{")) {
        ++depth;
        Next();
        continue;
      }
      if (t.Is("}")) {
        --depth;
        Next();
        continue;
      }
      if (depth == 1 && t.Is(".") && Peek(1).Is(TokenKind::kIdentifier) && Peek(2).Is("=")) {
        DesignatedInit init;
        Next();  // .
        init.field = Intern(Next().text);
        Next();  // =
        // Value: first identifier/literal token of the initializer.
        if (Peek().Is(TokenKind::kIdentifier) || Peek().Is(TokenKind::kNumber) ||
            Peek().Is(TokenKind::kString)) {
          init.value = Intern(Peek().text);
        }
        var.inits.push_back(init);
        continue;
      }
      Next();
    }
  }

  // ------------------------------------------------------------ statements

  StmtPtr MakeStmt(Stmt::Kind kind, uint32_t line) {
    Stmt* s = arena_->New<Stmt>();
    s->kind = kind;
    s->line = line;
    return s;
  }

  StmtPtr ParseCompound() {
    StmtPtr s = MakeStmt(Stmt::Kind::kCompound, Line());
    if (!Eat("{")) {
      s->kind = Stmt::Kind::kError;
      SyncToStatementEnd();
      return s;
    }
    while (!cur_.AtEnd() && !Peek().Is("}")) {
      s->stmts.push_back(ParseStatement(), *arena_);
    }
    Eat("}");
    return s;
  }

  StmtPtr ParseStatement() {
    CheckDeadline("parser");
    if (++depth_ > kMaxNesting) {
      --depth_;
      StmtPtr s = MakeStmt(Stmt::Kind::kError, Line());
      SyncToStatementEnd();
      return s;
    }
    StmtPtr s = ParseStatementInner();
    --depth_;
    return s;
  }

  StmtPtr ParseStatementInner() {
    const Token& t = Peek();
    const uint32_t line = t.line;

    if (t.Is(TokenKind::kPreproc)) {
      Next();
      return MakeStmt(Stmt::Kind::kEmpty, line);
    }
    if (t.Is(";")) {
      Next();
      return MakeStmt(Stmt::Kind::kEmpty, line);
    }
    if (t.Is("{")) {
      return ParseCompound();
    }
    if (t.Is("if")) {
      return ParseIf();
    }
    if (t.Is("while")) {
      Next();
      StmtPtr s = MakeStmt(Stmt::Kind::kWhile, line);
      s->expr = ParseParenExpr();
      s->body = ParseStatement();
      return s;
    }
    if (t.Is("do")) {
      Next();
      StmtPtr s = MakeStmt(Stmt::Kind::kDoWhile, line);
      s->body = ParseStatement();
      if (Eat("while")) {
        s->expr = ParseParenExpr();
      }
      Eat(";");
      return s;
    }
    if (t.Is("for")) {
      return ParseFor();
    }
    if (t.Is("switch")) {
      Next();
      StmtPtr s = MakeStmt(Stmt::Kind::kSwitch, line);
      s->expr = ParseParenExpr();
      s->body = ParseStatement();
      return s;
    }
    if (t.Is("case")) {
      Next();
      StmtPtr s = MakeStmt(Stmt::Kind::kCase, line);
      s->expr = ParseAssignment();
      Eat(":");
      return s;
    }
    if (t.Is("default")) {
      Next();
      Eat(":");
      return MakeStmt(Stmt::Kind::kDefault, line);
    }
    if (t.Is("goto")) {
      Next();
      StmtPtr s = MakeStmt(Stmt::Kind::kGoto, line);
      if (Peek().Is(TokenKind::kIdentifier)) {
        s->name = Intern(Next().text);
      }
      Eat(";");
      return s;
    }
    if (t.Is("return")) {
      Next();
      StmtPtr s = MakeStmt(Stmt::Kind::kReturn, line);
      if (!Peek().Is(";")) {
        s->expr = ParseAssignment();
      }
      Eat(";");
      return s;
    }
    if (t.Is("break")) {
      Next();
      Eat(";");
      return MakeStmt(Stmt::Kind::kBreak, line);
    }
    if (t.Is("continue")) {
      Next();
      Eat(";");
      return MakeStmt(Stmt::Kind::kContinue, line);
    }

    // Inline assembly: `asm [volatile|inline|goto] ( output : input :
    // clobbers )` — the register soup is opaque to the checkers, so the
    // whole block collapses to an empty statement (code around it still
    // parses; see the SNIPPETS.md refcount.h idiom).
    if (t.Is("asm") || t.Is("__asm__") || t.IsIdent("__asm")) {
      Next();
      while (Peek().Is("volatile") || Peek().IsIdent("__volatile__") || Peek().Is("inline") ||
             Peek().IsIdent("__inline__") || Peek().Is("goto")) {
        Next();
      }
      if (Peek().Is("(")) {
        SkipBalanced();
      }
      Eat(";");
      return MakeStmt(Stmt::Kind::kEmpty, line);
    }

    // Label: identifier ':' (not a ternary — at statement start this is safe).
    if (t.Is(TokenKind::kIdentifier) && Peek(1).Is(":")) {
      StmtPtr s = MakeStmt(Stmt::Kind::kLabel, line);
      s->name = Intern(Next().text);
      Eat(":");
      return s;
    }

    // Declaration heuristics.
    if (LooksLikeDeclaration()) {
      return ParseDeclaration();
    }

    // Macro loop: `for_each_xxx(args) body` — an identifier containing
    // "for_each" invoked at statement level.
    if (t.Is(TokenKind::kIdentifier) && t.text.find("for_each") != std::string_view::npos &&
        Peek(1).Is("(")) {
      StmtPtr s = MakeStmt(Stmt::Kind::kMacroLoop, line);
      s->expr = ParseAssignment();  // parses the call expression
      if (Peek().Is(";")) {
        Next();  // degenerate: macro used without a body
        s->body = MakeStmt(Stmt::Kind::kEmpty, line);
      } else {
        s->body = ParseStatement();
      }
      return s;
    }

    // Expression statement.
    StmtPtr s = MakeStmt(Stmt::Kind::kExpr, line);
    s->expr = ParseCommaExpr();
    if (s->expr == nullptr || s->expr->kind == Expr::Kind::kError) {
      s->kind = Stmt::Kind::kError;
      SyncToStatementEnd();
      return s;
    }
    // A call statement followed by '{' is also a macro loop (covers
    // list_for_each_entry-style names without "for_each" prefix variants).
    if (s->expr->IsCall() && Peek().Is("{")) {
      s->kind = Stmt::Kind::kMacroLoop;
      s->body = ParseStatement();
      return s;
    }
    if (!Eat(";")) {
      SyncToStatementEnd();
    }
    return s;
  }

  StmtPtr ParseIf() {
    const uint32_t line = Line();
    Next();  // if
    StmtPtr s = MakeStmt(Stmt::Kind::kIf, line);
    s->expr = ParseParenExpr();
    s->body = ParseStatement();
    if (Eat("else")) {
      s->else_body = ParseStatement();
    }
    return s;
  }

  StmtPtr ParseFor() {
    const uint32_t line = Line();
    Next();  // for
    StmtPtr s = MakeStmt(Stmt::Kind::kFor, line);
    if (!Eat("(")) {
      s->kind = Stmt::Kind::kError;
      SyncToStatementEnd();
      return s;
    }
    if (!Peek().Is(";")) {
      // The init clause may be a declaration (`int i = 0`): skip type tokens.
      while (Peek().Is(TokenKind::kKeyword) && IsTypeKeyword(Peek().text)) {
        Next();
      }
      s->init = ParseCommaExpr();
    }
    Eat(";");
    if (!Peek().Is(";")) {
      s->expr = ParseCommaExpr();
    }
    Eat(";");
    if (!Peek().Is(")")) {
      s->incr = ParseCommaExpr();
    }
    Eat(")");
    s->body = ParseStatement();
    return s;
  }

  bool LooksLikeDeclaration() const {
    const Token& t = Peek();
    if (t.Is(TokenKind::kKeyword) && IsTypeKeyword(t.text)) {
      return true;
    }
    if (!t.Is(TokenKind::kIdentifier)) {
      return false;
    }
    // ident ident  |  ident '*' ident (then '=' ';' ',' '[' or ')')
    const Token& a = Peek(1);
    if (a.Is(TokenKind::kIdentifier)) {
      const Token& b = Peek(2);
      return b.Is("=") || b.Is(";") || b.Is(",") || b.Is("[");
    }
    if (a.Is("*") && Peek(2).Is(TokenKind::kIdentifier)) {
      const Token& b = Peek(3);
      if (b.Is("=") || b.Is(";") || b.Is(",") || b.Is("[")) {
        // `a * b = c;` would be nonsense as an expression; treat as decl.
        return true;
      }
    }
    return LooksLikeTypedefName(t.text) && (a.Is("*") || a.Is(TokenKind::kIdentifier));
  }

  StmtPtr ParseDeclaration() {
    const uint32_t line = Line();
    std::string type;
    // Type tokens: keywords, identifiers (while followed by more type-ish
    // tokens), '*'.
    while (!cur_.AtEnd()) {
      if (SkipDeclNoise()) {
        continue;
      }
      const Token& t = Peek();
      if (t.Is(TokenKind::kKeyword) && IsTypeKeyword(t.text)) {
        const std::string_view keyword = t.text;
        if (!type.empty()) {
          type.push_back(' ');
        }
        type.append(keyword);
        Next();
        if (IsParenTypeKeyword(keyword) && Peek().Is("(")) {
          SkipBalanced();  // typeof(...) operand: opaque to the checkers
        }
        continue;
      }
      if (t.Is("*")) {
        type.append("*");
        Next();
        continue;
      }
      if (t.Is(TokenKind::kIdentifier)) {
        const Token& after = Peek(1);
        if (after.Is(TokenKind::kIdentifier) || after.Is("*")) {
          if (!type.empty()) {
            type.push_back(' ');
          }
          type.append(t.text);
          Next();
          continue;
        }
        break;  // this identifier is the declarator name
      }
      break;
    }
    const Symbol type_sym = Intern(type);

    // One or more declarators.
    StmtPtr compound = MakeStmt(Stmt::Kind::kCompound, line);
    bool first = true;
    while (!cur_.AtEnd()) {
      // Extra stars bind to the declarator.
      while (Peek().Is("*")) {
        Next();
      }
      if (!Peek().Is(TokenKind::kIdentifier)) {
        break;
      }
      StmtPtr decl = MakeStmt(Stmt::Kind::kDecl, Peek().line);
      decl->type = type_sym;
      decl->name = Intern(Next().text);
      while (Peek().Is("[")) {
        SkipBalanced();
      }
      if (Eat("=")) {
        decl->expr = ParseAssignment();
      }
      compound->stmts.push_back(decl, *arena_);
      first = false;
      if (!Eat(",")) {
        break;
      }
    }
    if (!Eat(";")) {
      SyncToStatementEnd();
    }
    if (compound->stmts.size() == 1) {
      return compound->stmts[0];
    }
    if (compound->stmts.empty()) {
      compound->kind = first ? Stmt::Kind::kError : Stmt::Kind::kEmpty;
    }
    return compound;
  }

  // ----------------------------------------------------------- expressions

  ExprPtr MakeExpr(Expr::Kind kind, uint32_t line) {
    Expr* e = arena_->New<Expr>();
    e->kind = kind;
    e->line = line;
    return e;
  }

  ExprPtr MakeError(uint32_t line) {
    ++recovery_events_;
    ExprPtr e = MakeExpr(Expr::Kind::kError, line);
    e->value = Intern(Peek().text);
    return e;
  }

  ExprPtr ParseParenExpr() {
    if (!Eat("(")) {
      return MakeError(Line());
    }
    ExprPtr e = ParseCommaExpr();
    Eat(")");
    return e;
  }

  ExprPtr ParseCommaExpr() {
    ExprPtr e = ParseAssignment();
    while (Peek().Is(",")) {
      const uint32_t line = Next().line;
      ExprPtr comma = MakeExpr(Expr::Kind::kBinary, line);
      static const Symbol kComma = Intern(",");
      comma->value = kComma;
      comma->args.push_back(e, *arena_);
      comma->args.push_back(ParseAssignment(), *arena_);
      e = comma;
    }
    return e;
  }

  ExprPtr ParseAssignment() {
    ExprPtr lhs = ParseTernary();
    const Token& t = Peek();
    static constexpr std::string_view kAssignOps[] = {"=",  "+=", "-=", "*=",  "/=", "%=",
                                                      "&=", "|=", "^=", "<<=", ">>="};
    for (std::string_view op : kAssignOps) {
      if (t.text == op && t.kind == TokenKind::kPunct) {
        const uint32_t line = Next().line;
        ExprPtr e = MakeExpr(Expr::Kind::kAssign, line);
        e->value = Intern(op);
        e->args.push_back(lhs, *arena_);
        e->args.push_back(Deeper([this] { return ParseAssignment(); }), *arena_);
        return e;
      }
    }
    return lhs;
  }

  ExprPtr ParseTernary() {
    ExprPtr cond = ParseBinary(0);
    if (!Peek().Is("?")) {
      return cond;
    }
    const uint32_t line = Next().line;
    ExprPtr e = MakeExpr(Expr::Kind::kTernary, line);
    e->args.push_back(cond, *arena_);
    e->args.push_back(Deeper([this] { return ParseCommaExpr(); }), *arena_);
    Eat(":");
    e->args.push_back(Deeper([this] { return ParseAssignment(); }), *arena_);
    return e;
  }

  // Expression nesting is bounded like statement nesting (ParseStatement):
  // every recursive cycle of the expression grammar passes through
  // ParseUnary or the right-hand side of an assignment or a ternary, and
  // each of those parses one level deeper through here. Past kMaxNesting the
  // level becomes one error node and its tokens are skipped.
  template <typename Parse>
  ExprPtr Deeper(const Parse& parse) {
    if (expr_depth_ >= kMaxNesting) {
      ExprPtr e = MakeError(Line());
      SkipToExpressionEnd();
      return e;
    }
    ++expr_depth_;
    ExprPtr e = parse();
    --expr_depth_;
    return e;
  }

  // Skips to the token that ends the current subexpression: a closing
  // bracket, ',', ';' or ':' outside any bracket the skip opened.
  void SkipToExpressionEnd() {
    int depth = 0;
    while (!cur_.AtEnd()) {
      const Token& t = Peek();
      if (t.Is("(") || t.Is("[") || t.Is("{")) {
        ++depth;
      } else if (t.Is(")") || t.Is("]") || t.Is("}")) {
        if (depth == 0) {
          return;
        }
        --depth;
      } else if (depth == 0 && (t.Is(",") || t.Is(";") || t.Is(":"))) {
        return;
      }
      Next();
    }
  }

  static int BinaryPrecedence(std::string_view op) {
    // Probed once per token during expression parsing: dispatch on
    // (length, first char) rather than a comparison chain.
    if (op.size() == 1) {
      switch (op[0]) {
        case '*': case '/': case '%': return 10;
        case '+': case '-': return 9;
        case '<': case '>': return 7;
        case '&': return 5;
        case '^': return 4;
        case '|': return 3;
        default: return -1;
      }
    }
    if (op.size() == 2) {
      switch (op[0]) {
        case '<': return op[1] == '<' ? 8 : op[1] == '=' ? 7 : -1;
        case '>': return op[1] == '>' ? 8 : op[1] == '=' ? 7 : -1;
        case '=': return op[1] == '=' ? 6 : -1;
        case '!': return op[1] == '=' ? 6 : -1;
        case '&': return op[1] == '&' ? 2 : -1;
        case '|': return op[1] == '|' ? 1 : -1;
        default: return -1;
      }
    }
    return -1;
  }

  ExprPtr ParseBinary(int min_prec) {
    ExprPtr lhs = ParseUnary();
    while (true) {
      const Token& t = Peek();
      if (!t.Is(TokenKind::kPunct)) {
        return lhs;
      }
      const int prec = BinaryPrecedence(t.text);
      if (prec < 0 || prec < min_prec) {
        return lhs;
      }
      const Symbol op = Intern(t.text);
      const uint32_t line = Next().line;
      ExprPtr rhs = ParseBinary(prec + 1);
      ExprPtr e = MakeExpr(Expr::Kind::kBinary, line);
      e->value = op;
      e->args.push_back(lhs, *arena_);
      e->args.push_back(rhs, *arena_);
      lhs = e;
    }
  }

  ExprPtr ParseUnary() {
    return Deeper([this] { return ParseUnaryOperand(); });
  }

  ExprPtr ParseUnaryOperand() {
    const Token& t = Peek();
    if (t.Is(TokenKind::kPunct)) {
      // * & ! ~ - + ++ --
      const std::string_view s = t.text;
      const bool is_unary =
          (s.size() == 1 && (s[0] == '*' || s[0] == '&' || s[0] == '!' || s[0] == '~' ||
                             s[0] == '-' || s[0] == '+')) ||
          (s.size() == 2 && s[0] == s[1] && (s[0] == '+' || s[0] == '-'));
      if (is_unary) {
        const Symbol op = Intern(s);
        const uint32_t line = Next().line;
        ExprPtr e = MakeExpr(Expr::Kind::kUnary, line);
        e->value = op;
        e->args.push_back(ParseUnary(), *arena_);
        return e;
      }
    }
    if (t.Is("sizeof")) {
      const uint32_t line = Next().line;
      ExprPtr e = MakeExpr(Expr::Kind::kUnary, line);
      static const Symbol kSizeof = Intern("sizeof");
      e->value = kSizeof;
      if (Peek().Is("(")) {
        SkipBalanced();
        e->args.push_back(MakeExpr(Expr::Kind::kLiteral, line), *arena_);
      } else {
        e->args.push_back(ParseUnary(), *arena_);
      }
      return e;
    }
    return ParsePostfix();
  }

  // Decides whether a parenthesised token run is a cast: contents must be
  // only type-ish tokens and the next token must start an expression.
  bool LooksLikeCast() const {
    if (!Peek().Is("(")) {
      return false;
    }
    size_t i = 1;
    bool saw_type_word = false;
    while (true) {
      const Token& t = Peek(i);
      if (t.Is(")")) {
        break;
      }
      if (t.Is(TokenKind::kKeyword) && IsTypeKeyword(t.text)) {
        saw_type_word = true;
      } else if (t.Is("*")) {
        // fine
      } else if (t.Is(TokenKind::kIdentifier)) {
        if (!LooksLikeTypedefName(t.text) && !Peek(i + 1).Is("*") && !Peek(i + 1).Is(")")) {
          return false;
        }
        // An identifier is only type-ish when followed by '*' or ')'
        // *and* a type keyword or typedef-ish spelling is plausible.
        if (!LooksLikeTypedefName(t.text) && !saw_type_word && !Peek(i + 1).Is("*")) {
          return false;
        }
        saw_type_word = saw_type_word || LooksLikeTypedefName(t.text) || Peek(i + 1).Is("*");
      } else {
        return false;
      }
      ++i;
      if (i > 16) {
        return false;
      }
    }
    if (!saw_type_word) {
      return false;
    }
    // Next token must start an expression.
    const Token& after = Peek(i + 1);
    return after.Is(TokenKind::kIdentifier) || after.Is(TokenKind::kNumber) ||
           after.Is(TokenKind::kString) || after.Is("(") || after.Is("*") || after.Is("&");
  }

  ExprPtr ParsePostfix() {
    ExprPtr e = ParsePrimary();
    while (true) {
      const Token& t = Peek();
      if (t.Is("(")) {
        const uint32_t line = Next().line;
        ExprPtr call = MakeExpr(Expr::Kind::kCall, line);
        call->args.push_back(e, *arena_);
        while (!cur_.AtEnd() && !Peek().Is(")")) {
          call->args.push_back(ParseAssignment(), *arena_);
          if (!Eat(",")) {
            break;
          }
        }
        Eat(")");
        e = call;
        continue;
      }
      if (t.Is("[")) {
        const uint32_t line = Next().line;
        ExprPtr index = MakeExpr(Expr::Kind::kIndex, line);
        index->args.push_back(e, *arena_);
        index->args.push_back(ParseCommaExpr(), *arena_);
        Eat("]");
        e = index;
        continue;
      }
      if (t.Is(".") || t.Is("->")) {
        const bool arrow = t.Is("->");
        const uint32_t line = Next().line;
        ExprPtr member = MakeExpr(Expr::Kind::kMember, line);
        member->arrow = arrow;
        member->args.push_back(e, *arena_);
        if (Peek().Is(TokenKind::kIdentifier)) {
          member->value = Intern(Next().text);
        }
        e = member;
        continue;
      }
      if (t.Is("++") || t.Is("--")) {
        const uint32_t line = Line();
        ExprPtr post = MakeExpr(Expr::Kind::kUnary, line);
        post->value = Intern(Next().text);
        post->args.push_back(e, *arena_);
        e = post;
        continue;
      }
      return e;
    }
  }

  ExprPtr ParsePrimary() {
    const Token& t = Peek();
    const uint32_t line = t.line;

    if (t.Is(TokenKind::kIdentifier)) {
      return MakeIdent(*arena_, Next().text, line);
    }
    if (t.Is(TokenKind::kNumber) || t.Is(TokenKind::kString) || t.Is(TokenKind::kChar)) {
      ExprPtr e = MakeExpr(Expr::Kind::kLiteral, line);
      e->value = Intern(Next().text);
      return e;
    }
    if (t.Is("(") && Peek(1).Is("{")) {
      // GNU statement expression: `({ stmt; ...; last_expr; })`. The
      // statements parse normally, then every expression they carry is
      // flattened into one comma chain so calls inside stay visible to the
      // checkers (ForEachExpr reaches them through the chain); the internal
      // control-flow shape is deliberately dropped — kernel code only grows
      // these inside macro bodies, which the parser never expands anyway.
      Next();  // (
      StmtPtr body = ParseCompound();
      Eat(")");
      std::vector<ExprPtr> exprs;
      ForEachStmt(*body, [&exprs](const Stmt& s) {
        for (ExprPtr e : {s.expr, s.init, s.incr}) {
          if (e != nullptr) {
            exprs.push_back(e);
          }
        }
      });
      if (exprs.empty()) {
        return MakeExpr(Expr::Kind::kLiteral, line);
      }
      ExprPtr chain = exprs[0];
      static const Symbol kComma = Intern(",");
      for (size_t k = 1; k < exprs.size(); ++k) {
        ExprPtr comma = MakeExpr(Expr::Kind::kBinary, exprs[k]->line);
        comma->value = kComma;
        comma->args.push_back(chain, *arena_);
        comma->args.push_back(exprs[k], *arena_);
        chain = comma;
      }
      return chain;
    }
    if (t.Is("(")) {
      if (LooksLikeCast()) {
        Next();  // (
        std::string type;
        while (!cur_.AtEnd() && !Peek().Is(")")) {
          if (!type.empty() && !Peek().Is("*")) {
            type.push_back(' ');
          }
          type.append(Next().text);
        }
        Eat(")");
        ExprPtr e = MakeExpr(Expr::Kind::kCast, line);
        e->value = Intern(type);
        e->args.push_back(ParseUnary(), *arena_);
        return e;
      }
      Next();
      ExprPtr inner = ParseCommaExpr();
      Eat(")");
      return inner;
    }
    if (t.Is("{")) {
      // Compound literal-ish initializer; capture elements loosely.
      Next();
      ExprPtr e = MakeExpr(Expr::Kind::kInitList, line);
      while (!cur_.AtEnd() && !Peek().Is("}")) {
        if (Peek().Is(".")) {
          Next();  // designator
          continue;
        }
        if (Peek().Is("=")) {
          Next();
          continue;
        }
        e->args.push_back(ParseAssignment(), *arena_);
        if (!Eat(",")) {
          break;
        }
      }
      Eat("}");
      return e;
    }
    // Unparseable: consume one token so the caller makes progress.
    ExprPtr e = MakeError(line);
    Next();
    return e;
  }

  // Declared before tokens_: Tokenize writes normalized spellings of
  // spliced identifiers here, and members initialize in declaration order.
  SpliceStorage splices_;
  std::vector<Token> tokens_;
  TokenCursor cur_;
  TranslationUnit unit_;
  std::shared_ptr<Arena> arena_;
  int depth_ = 0;       // statement nesting
  int expr_depth_ = 0;  // expression nesting (Deeper)
  // Error-recovery actions (MakeError / SyncToStatementEnd) observed while
  // parsing the current function body; drives function quarantine.
  size_t recovery_events_ = 0;
};

}  // namespace

TranslationUnit ParseFile(const SourceFile& file) {
  MaybeFault("parser.parse", file.path());
  Parser parser(file);
  return parser.Parse();
}

ParsedExpr ParseExpression(std::string_view text) {
  SourceFile file("<expr>", std::string(text));
  Parser parser(file);
  ExprPtr root = parser.ParseFullExpr();
  return ParsedExpr(parser.TakeArena(), root);
}

TranslationUnit ParseSnippet(std::string_view body_text) {
  std::string wrapped = "void snippet(void)\n{\n";
  wrapped.append(body_text);
  wrapped.append("\n}\n");
  SourceFile file("<snippet>", std::move(wrapped));
  return ParseFile(file);
}

}  // namespace refscan
