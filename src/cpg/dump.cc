#include "src/cpg/dump.h"

#include "src/lexer/lexer.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

std::string_view TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier:
      return "ident";
    case TokenKind::kKeyword:
      return "keyword";
    case TokenKind::kNumber:
      return "number";
    case TokenKind::kString:
      return "string";
    case TokenKind::kChar:
      return "char";
    case TokenKind::kPunct:
      return "punct";
    case TokenKind::kPreproc:
      return "preproc";
    case TokenKind::kEof:
      return "eof";
  }
  return "?";
}

std::string_view StmtKindName(Stmt::Kind kind) {
  switch (kind) {
    case Stmt::Kind::kExpr:
      return "expr";
    case Stmt::Kind::kDecl:
      return "decl";
    case Stmt::Kind::kCompound:
      return "compound";
    case Stmt::Kind::kIf:
      return "if";
    case Stmt::Kind::kWhile:
      return "while";
    case Stmt::Kind::kDoWhile:
      return "do-while";
    case Stmt::Kind::kFor:
      return "for";
    case Stmt::Kind::kMacroLoop:
      return "macro-loop";
    case Stmt::Kind::kSwitch:
      return "switch";
    case Stmt::Kind::kCase:
      return "case";
    case Stmt::Kind::kDefault:
      return "default";
    case Stmt::Kind::kLabel:
      return "label";
    case Stmt::Kind::kGoto:
      return "goto";
    case Stmt::Kind::kReturn:
      return "return";
    case Stmt::Kind::kBreak:
      return "break";
    case Stmt::Kind::kContinue:
      return "continue";
    case Stmt::Kind::kEmpty:
      return "empty";
    case Stmt::Kind::kError:
      return "error";
  }
  return "?";
}

void DumpStmt(const Stmt& stmt, int depth, std::string& out) {
  out += StrFormat("%*s%s @%u", depth * 2, "", std::string(StmtKindName(stmt.kind)).c_str(),
                   stmt.line);
  if (!stmt.name.empty()) {
    out += StrFormat(" name=%s", stmt.name.c_str());
  }
  if (!stmt.type.empty()) {
    out += StrFormat(" type='%s'", stmt.type.c_str());
  }
  if (stmt.expr != nullptr) {
    out += StrFormat(" expr=`%s`", stmt.expr->ToString().c_str());
  }
  if (stmt.init != nullptr) {
    out += StrFormat(" init=`%s`", stmt.init->ToString().c_str());
  }
  if (stmt.incr != nullptr) {
    out += StrFormat(" incr=`%s`", stmt.incr->ToString().c_str());
  }
  out += "\n";
  for (const Stmt* child : {stmt.body, stmt.else_body}) {
    if (child != nullptr) {
      DumpStmt(*child, depth + 1, out);
    }
  }
  for (const StmtPtr& child : stmt.stmts) {
    if (child != nullptr) {
      DumpStmt(*child, depth + 1, out);
    }
  }
}

}  // namespace

std::string_view SemOpName(SemOp op) {
  switch (op) {
    case SemOp::kIncrease:
      return "INC";
    case SemOp::kDecrease:
      return "DEC";
    case SemOp::kAssign:
      return "ASSIGN";
    case SemOp::kDeref:
      return "DEREF";
    case SemOp::kLock:
      return "LOCK";
    case SemOp::kUnlock:
      return "UNLOCK";
    case SemOp::kFree:
      return "FREE";
    case SemOp::kNullCheck:
      return "NULLCHK";
    case SemOp::kReturn:
      return "RET";
    case SemOp::kLoopHead:
      return "LOOP";
    case SemOp::kRawInc:
      return "RAWINC";
    case SemOp::kRawDec:
      return "RAWDEC";
    case SemOp::kRawSet:
      return "RAWSET";
  }
  return "?";
}

std::string DumpTokens(const SourceFile& file) {
  std::string out;
  for (const Token& token : Tokenize(file)) {
    out += StrFormat("%4u %-8s %s\n", token.line,
                     std::string(TokenKindName(token.kind)).c_str(),
                     std::string(token.text.substr(0, 60)).c_str());
  }
  return out;
}

std::string DumpAst(const TranslationUnit& unit) {
  std::string out = StrFormat("translation unit: %s\n", unit.path.c_str());
  for (const MacroDef& macro : unit.macros) {
    out += StrFormat("macro %s(%zu params) @%u\n", macro.name.c_str(), macro.params.size(),
                     macro.line);
  }
  for (const StructDef& def : unit.structs) {
    out += StrFormat("struct %s @%u (%zu fields)\n", def.name.c_str(), def.line,
                     def.fields.size());
    for (const StructField& field : def.fields) {
      out += StrFormat("  field %s : %s\n", field.name.c_str(), field.type.c_str());
    }
  }
  for (const GlobalVar& g : unit.globals) {
    out += StrFormat("global %s : %s @%u\n", g.name.c_str(), g.type.c_str(), g.line);
    for (const DesignatedInit& init : g.inits) {
      out += StrFormat("  .%s = %s\n", init.field.c_str(), init.value.c_str());
    }
  }
  for (const FunctionDef& fn : unit.functions) {
    out += StrFormat("function %s%s : %s @%u (%zu params)\n", fn.is_static ? "static " : "",
                     fn.name.c_str(), fn.return_type.c_str(), fn.line, fn.params.size());
    if (fn.body != nullptr) {
      DumpStmt(*fn.body, 1, out);
    }
  }
  return out;
}

std::string DumpCfg(const Cfg& cfg) {
  std::string out =
      StrFormat("cfg for %s: %zu nodes, entry=%d exit=%d\n",
                cfg.function() != nullptr ? cfg.function()->name.c_str() : "?", cfg.size(),
                cfg.entry(), cfg.exit());
  for (size_t i = 0; i < cfg.size(); ++i) {
    const CfgNode& node = cfg.node(static_cast<int>(i));
    const char* kind = "stmt";
    switch (node.kind) {
      case CfgNode::Kind::kEntry:
        kind = "entry";
        break;
      case CfgNode::Kind::kExit:
        kind = "exit";
        break;
      case CfgNode::Kind::kCondition:
        kind = "cond";
        break;
      case CfgNode::Kind::kLoopHead:
        kind = "loop";
        break;
      case CfgNode::Kind::kStatement:
        break;
    }
    out += StrFormat("  [%zu] %-5s @%-4u ->", i, kind, node.line);
    for (int succ : cfg.succs(static_cast<int>(i))) {
      out += StrFormat(" %d", succ);
    }
    if (node.is_error_context) {
      out += "  (error-context)";
    }
    if (node.macro_loop >= 0) {
      out += StrFormat("  (in macro-loop %d)", node.macro_loop);
    }
    if (node.expr != nullptr) {
      out += StrFormat("  `%s`", node.expr->ToString().substr(0, 48).c_str());
    }
    out += "\n";
  }
  return out;
}

std::string DumpCpg(const Cpg& cpg) {
  std::string out;
  for (size_t i = 0; i < cpg.size(); ++i) {
    const auto& events = cpg.events(static_cast<int>(i));
    if (events.empty()) {
      continue;
    }
    out += StrFormat("node %zu:\n", i);
    for (const SemEvent& ev : events) {
      out += StrFormat("  @%-4u %-7s obj='%s'", ev.line,
                       std::string(SemOpName(ev.op)).c_str(), ev.object.c_str());
      if (!ev.aux.empty()) {
        out += StrFormat(" aux='%s'", ev.aux.c_str());
      }
      if (ev.api != nullptr) {
        out += StrFormat(" api=%s", ev.api->name.c_str());
      }
      if (ev.loop != nullptr) {
        out += StrFormat(" loop=%s", ev.loop->name.c_str());
      }
      if (ev.escapes) {
        out += " escapes";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace refscan
