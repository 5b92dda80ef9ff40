#include "src/cache/cache.h"

#include <cstdio>
#include <cstring>

#include "src/cache/serial.h"
#include "src/support/faultinject.h"
#include "src/support/telemetry.h"

namespace refscan {

namespace {

// Bump whenever any serialized layout changes; stale-version objects load
// as misses and get rewritten. v2: AST identifier fields are interned
// Symbols — serialized as their text (ids are interleaving-dependent and
// never touch disk) and re-interned on load; units deserialize into a fresh
// per-unit Arena. v3: DiscoveryFacts::Field carries the field name, RefApiInfo
// carries tests_zero, and the KB snapshot/fingerprint cover the refcount-field
// and dialect-free-function registries (P10-P12, DESIGN.md §5.12). v4: units
// and report shards carry the quarantined-function list (DESIGN.md §5.15).
// v5: keys, checksums and fingerprints use the word-at-a-time HashBytes
// (serial.h) instead of FNV-1a.
constexpr uint32_t kFormatVersion = 5;
constexpr char kMagic[4] = {'R', 'F', 'S', 'C'};

constexpr uint8_t kKindFacts = 1;
constexpr uint8_t kKindUnit = 2;
constexpr uint8_t kKindReports = 3;
constexpr uint8_t kKindKb = 4;

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// DiscoveryFacts

void WriteFacts(ByteWriter& w, const DiscoveryFacts& facts) {
  w.U32(static_cast<uint32_t>(facts.structs.size()));
  for (const DiscoveryFacts::Struct& s : facts.structs) {
    w.Str(s.name);
    w.U32(static_cast<uint32_t>(s.fields.size()));
    for (const DiscoveryFacts::Field& f : s.fields) {
      w.Bool(f.direct_refcounter);
      w.Str(f.nested_tag);
      w.Str(f.name);
    }
  }
  w.U32(static_cast<uint32_t>(facts.functions.size()));
  for (const DiscoveryFacts::Function& fn : facts.functions) {
    w.Str(fn.name);
    w.Bool(fn.returns_pointer);
    w.Bool(fn.has_return_null);
    w.Bool(fn.has_error_return);
    w.I32(fn.sink_param);
    w.U32(static_cast<uint32_t>(fn.events.size()));
    for (const DiscoveryFacts::RefEvent& ev : fn.events) {
      w.Bool(ev.is_call);
      w.Str(ev.callee);
      w.I32(ev.arg1_param);
      w.Bool(ev.increase);
    }
  }
  w.U32(static_cast<uint32_t>(facts.macros.size()));
  for (const DiscoveryFacts::Macro& m : facts.macros) {
    w.Str(m.name);
    w.U32(static_cast<uint32_t>(m.params.size()));
    for (const std::string& p : m.params) {
      w.Str(p);
    }
    w.Str(m.body);
  }
}

DiscoveryFacts ReadFacts(ByteReader& r) {
  DiscoveryFacts facts;
  const uint32_t n_structs = r.Count();
  facts.structs.reserve(n_structs);
  for (uint32_t i = 0; i < n_structs && r.ok(); ++i) {
    DiscoveryFacts::Struct s;
    s.name = r.Str();
    const uint32_t n_fields = r.Count();
    s.fields.reserve(n_fields);
    for (uint32_t j = 0; j < n_fields && r.ok(); ++j) {
      DiscoveryFacts::Field f;
      f.direct_refcounter = r.Bool();
      f.nested_tag = r.Str();
      f.name = r.Str();
      s.fields.push_back(std::move(f));
    }
    facts.structs.push_back(std::move(s));
  }
  const uint32_t n_functions = r.Count();
  facts.functions.reserve(n_functions);
  for (uint32_t i = 0; i < n_functions && r.ok(); ++i) {
    DiscoveryFacts::Function fn;
    fn.name = r.Str();
    fn.returns_pointer = r.Bool();
    fn.has_return_null = r.Bool();
    fn.has_error_return = r.Bool();
    fn.sink_param = r.I32();
    const uint32_t n_events = r.Count();
    fn.events.reserve(n_events);
    for (uint32_t j = 0; j < n_events && r.ok(); ++j) {
      DiscoveryFacts::RefEvent ev;
      ev.is_call = r.Bool();
      ev.callee = r.Str();
      ev.arg1_param = r.I32();
      ev.increase = r.Bool();
      fn.events.push_back(std::move(ev));
    }
    facts.functions.push_back(std::move(fn));
  }
  const uint32_t n_macros = r.Count();
  facts.macros.reserve(n_macros);
  for (uint32_t i = 0; i < n_macros && r.ok(); ++i) {
    DiscoveryFacts::Macro m;
    m.name = r.Str();
    const uint32_t n_params = r.Count();
    m.params.reserve(n_params);
    for (uint32_t j = 0; j < n_params && r.ok(); ++j) {
      m.params.push_back(r.Str());
    }
    m.body = r.Str();
    facts.macros.push_back(std::move(m));
  }
  return facts;
}

// ---------------------------------------------------------------------------
// TranslationUnit (recursive over Expr / Stmt; nullable pointers carry a
// presence byte). Symbols serialize as their text; readers allocate nodes
// from the destination unit's Arena and re-intern on load.

void WriteExpr(ByteWriter& w, const Expr* e);
void WriteStmt(ByteWriter& w, const Stmt* s);
ExprPtr ReadExpr(ByteReader& r, Arena& arena);
StmtPtr ReadStmt(ByteReader& r, Arena& arena);

void WriteExpr(ByteWriter& w, const Expr* e) {
  w.Bool(e != nullptr);
  if (e == nullptr) {
    return;
  }
  w.U8(static_cast<uint8_t>(e->kind));
  w.U32(e->line);
  w.Str(e->value.view());
  w.Bool(e->arrow);
  w.U32(static_cast<uint32_t>(e->args.size()));
  for (const ExprPtr arg : e->args) {
    WriteExpr(w, arg);
  }
}

ExprPtr ReadExpr(ByteReader& r, Arena& arena) {
  if (!r.Bool() || !r.ok()) {
    return nullptr;
  }
  Expr* e = arena.New<Expr>();
  e->kind = static_cast<Expr::Kind>(r.U8());
  e->line = r.U32();
  e->value = Intern(r.Str());
  e->arrow = r.Bool();
  const uint32_t n = r.Count();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    e->args.push_back(ReadExpr(r, arena), arena);
  }
  return e;
}

void WriteStmt(ByteWriter& w, const Stmt* s) {
  w.Bool(s != nullptr);
  if (s == nullptr) {
    return;
  }
  w.U8(static_cast<uint8_t>(s->kind));
  w.U32(s->line);
  w.Str(s->name.view());
  w.Str(s->type.view());
  WriteExpr(w, s->expr);
  WriteExpr(w, s->init);
  WriteExpr(w, s->incr);
  WriteStmt(w, s->body);
  WriteStmt(w, s->else_body);
  w.U32(static_cast<uint32_t>(s->stmts.size()));
  for (const StmtPtr child : s->stmts) {
    WriteStmt(w, child);
  }
}

StmtPtr ReadStmt(ByteReader& r, Arena& arena) {
  if (!r.Bool() || !r.ok()) {
    return nullptr;
  }
  Stmt* s = arena.New<Stmt>();
  s->kind = static_cast<Stmt::Kind>(r.U8());
  s->line = r.U32();
  s->name = Intern(r.Str());
  s->type = Intern(r.Str());
  s->expr = ReadExpr(r, arena);
  s->init = ReadExpr(r, arena);
  s->incr = ReadExpr(r, arena);
  s->body = ReadStmt(r, arena);
  s->else_body = ReadStmt(r, arena);
  const uint32_t n = r.Count();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    s->stmts.push_back(ReadStmt(r, arena), arena);
  }
  return s;
}

void WriteUnit(ByteWriter& w, const TranslationUnit& unit) {
  w.Str(unit.path);
  w.U32(static_cast<uint32_t>(unit.macros.size()));
  for (const MacroDef& m : unit.macros) {
    w.Str(m.name.view());
    w.U32(static_cast<uint32_t>(m.params.size()));
    for (const Symbol p : m.params) {
      w.Str(p.view());
    }
    w.Str(m.body);
    w.U32(m.line);
  }
  w.U32(static_cast<uint32_t>(unit.structs.size()));
  for (const StructDef& s : unit.structs) {
    w.Str(s.name.view());
    w.U32(s.line);
    w.U32(static_cast<uint32_t>(s.fields.size()));
    for (const StructField& f : s.fields) {
      w.Str(f.type.view());
      w.Str(f.name.view());
    }
  }
  w.U32(static_cast<uint32_t>(unit.globals.size()));
  for (const GlobalVar& g : unit.globals) {
    w.Str(g.type.view());
    w.Str(g.name.view());
    w.U32(g.line);
    w.U32(static_cast<uint32_t>(g.inits.size()));
    for (const DesignatedInit& d : g.inits) {
      w.Str(d.field.view());
      w.Str(d.value.view());
    }
  }
  w.U32(static_cast<uint32_t>(unit.functions.size()));
  for (const FunctionDef& fn : unit.functions) {
    w.Str(fn.return_type.view());
    w.Str(fn.name.view());
    w.U32(fn.line);
    w.Bool(fn.is_static);
    w.U32(static_cast<uint32_t>(fn.params.size()));
    for (const Param& p : fn.params) {
      w.Str(p.type.view());
      w.Str(p.name.view());
    }
    WriteStmt(w, fn.body);
  }
  w.U32(static_cast<uint32_t>(unit.degraded.size()));
  for (const DegradedFunction& d : unit.degraded) {
    w.Str(d.name);
    w.U32(d.line);
    w.Str(d.what);
  }
}

TranslationUnit ReadUnit(ByteReader& r) {
  TranslationUnit unit;
  unit.arena = std::make_shared<Arena>();
  Arena& arena = *unit.arena;
  unit.path = r.Str();
  const uint32_t n_macros = r.Count();
  unit.macros.reserve(n_macros);
  for (uint32_t i = 0; i < n_macros && r.ok(); ++i) {
    MacroDef m;
    m.name = Intern(r.Str());
    const uint32_t n_params = r.Count();
    m.params.reserve(n_params);
    for (uint32_t j = 0; j < n_params && r.ok(); ++j) {
      m.params.push_back(Intern(r.Str()));
    }
    m.body = r.Str();
    m.line = r.U32();
    unit.macros.push_back(std::move(m));
  }
  const uint32_t n_structs = r.Count();
  unit.structs.reserve(n_structs);
  for (uint32_t i = 0; i < n_structs && r.ok(); ++i) {
    StructDef s;
    s.name = Intern(r.Str());
    s.line = r.U32();
    const uint32_t n_fields = r.Count();
    s.fields.reserve(n_fields);
    for (uint32_t j = 0; j < n_fields && r.ok(); ++j) {
      StructField f;
      f.type = Intern(r.Str());
      f.name = Intern(r.Str());
      s.fields.push_back(f);
    }
    unit.structs.push_back(std::move(s));
  }
  const uint32_t n_globals = r.Count();
  unit.globals.reserve(n_globals);
  for (uint32_t i = 0; i < n_globals && r.ok(); ++i) {
    GlobalVar g;
    g.type = Intern(r.Str());
    g.name = Intern(r.Str());
    g.line = r.U32();
    const uint32_t n_inits = r.Count();
    g.inits.reserve(n_inits);
    for (uint32_t j = 0; j < n_inits && r.ok(); ++j) {
      DesignatedInit d;
      d.field = Intern(r.Str());
      d.value = Intern(r.Str());
      g.inits.push_back(d);
    }
    unit.globals.push_back(std::move(g));
  }
  const uint32_t n_functions = r.Count();
  for (uint32_t i = 0; i < n_functions && r.ok(); ++i) {
    FunctionDef fn;
    fn.return_type = Intern(r.Str());
    fn.name = Intern(r.Str());
    fn.line = r.U32();
    fn.is_static = r.Bool();
    const uint32_t n_params = r.Count();
    fn.params.reserve(n_params);
    for (uint32_t j = 0; j < n_params && r.ok(); ++j) {
      Param p;
      p.type = Intern(r.Str());
      p.name = Intern(r.Str());
      fn.params.push_back(p);
    }
    fn.body = ReadStmt(r, arena);
    unit.functions.push_back(std::move(fn));
  }
  const uint32_t n_degraded = r.Count();
  unit.degraded.reserve(n_degraded);
  for (uint32_t i = 0; i < n_degraded && r.ok(); ++i) {
    DegradedFunction d;
    d.name = r.Str();
    d.line = r.U32();
    d.what = r.Str();
    unit.degraded.push_back(std::move(d));
  }
  return unit;
}

// ---------------------------------------------------------------------------
// Reports

void WriteReports(ByteWriter& w, const CachedFileReports& shard) {
  w.U64(shard.functions);
  w.U32(static_cast<uint32_t>(shard.reports.size()));
  for (const BugReport& b : shard.reports) {
    w.I32(b.anti_pattern);
    w.U8(static_cast<uint8_t>(b.impact));
    w.Str(b.file);
    w.Str(b.function);
    w.U32(b.line);
    w.U32(b.exit_line);
    w.Str(b.api);
    w.Str(b.object);
    w.Str(b.template_path);
    w.Str(b.message);
  }
  w.U32(static_cast<uint32_t>(shard.degraded.size()));
  for (const DegradedFunction& d : shard.degraded) {
    w.Str(d.name);
    w.U32(d.line);
    w.Str(d.what);
  }
}

CachedFileReports ReadReports(ByteReader& r) {
  CachedFileReports shard;
  shard.functions = r.U64();
  const uint32_t n = r.Count();
  shard.reports.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    BugReport b;
    b.anti_pattern = r.I32();
    b.impact = static_cast<Impact>(r.U8());
    b.file = r.Str();
    b.function = r.Str();
    b.line = r.U32();
    b.exit_line = r.U32();
    b.api = r.Str();
    b.object = r.Str();
    b.template_path = r.Str();
    b.message = r.Str();
    shard.reports.push_back(std::move(b));
  }
  const uint32_t n_degraded = r.Count();
  shard.degraded.reserve(n_degraded);
  for (uint32_t i = 0; i < n_degraded && r.ok(); ++i) {
    DegradedFunction d;
    d.name = r.Str();
    d.line = r.U32();
    d.what = r.Str();
    shard.degraded.push_back(std::move(d));
  }
  return shard;
}

}  // namespace

// ---------------------------------------------------------------------------
// Keys and fingerprints

std::string CacheKey::Hex() const { return HexU64(hi) + HexU64(lo); }

CacheKey MakeFileKey(std::string_view path, std::string_view content, uint64_t options_fp) {
  ByteWriter w;
  w.U32(kFormatVersion);
  w.Str(path);
  w.U64(options_fp);
  const Hash128 content_hash = HashBytesDual(content);
  const Hash128 meta_hash = HashBytesDual(w.bytes());
  CacheKey key;
  key.hi = HashMix(content_hash.hi, meta_hash.hi);
  key.lo = HashMix(content_hash.lo, meta_hash.lo);
  return key;
}

CacheKey MakeKbSnapshotKey(uint64_t base_kb_fp, int nesting_threshold,
                           const std::vector<const DiscoveryFacts*>& facts, uint64_t options_fp) {
  // 16 bytes of per-file facts digest rather than the concatenated facts
  // themselves: the serialized facts already exist per file, and hashing
  // their digests keeps the key input small while still pinning content
  // and order.
  ByteWriter w;
  w.U64(base_kb_fp);
  w.I32(nesting_threshold);
  w.U32(static_cast<uint32_t>(facts.size()));
  for (const DiscoveryFacts* f : facts) {
    const Hash128 h = HashBytesDual(SerializeFacts(*f));
    w.U64(h.hi);
    w.U64(h.lo);
  }
  return MakeFileKey("<kb-snapshot>", w.bytes(), options_fp);
}

uint64_t FingerprintKnowledgeBase(const KnowledgeBase& kb) {
  ByteWriter w;
  w.U32(kFormatVersion);
  for (const auto& [name, api] : kb.apis()) {
    w.Str(name);
    w.U8(static_cast<uint8_t>(api.direction));
    w.U8(static_cast<uint8_t>(api.category));
    w.Bool(api.returns_error);
    w.Bool(api.may_return_null);
    w.Bool(api.returns_object);
    w.I32(api.object_param);
    w.I32(api.consumed_param);
    w.Bool(api.hidden);
    w.Bool(api.tests_zero);
    w.Bool(api.discovered);
  }
  for (const auto& [name, loop] : kb.smart_loops()) {
    w.Str(name);
    w.I32(loop.iterator_arg);
    w.Str(loop.embedded_api);
  }
  for (const std::string& s : kb.refcounted_structs()) {
    w.Str(s);
  }
  for (const auto& [name, param] : kb.ownership_sinks()) {
    w.Str(name);
    w.I32(param);
  }
  for (const auto& [name, params] : kb.param_derefs()) {
    w.Str(name);
    w.U32(static_cast<uint32_t>(params.size()));
    for (const int p : params) {
      w.I32(p);
    }
  }
  for (const std::string& f : kb.refcount_fields()) {
    w.Str(f);
  }
  for (const std::string& f : kb.extra_free_functions()) {
    w.Str(f);
  }
  return HashBytes(w.bytes());
}

// ---------------------------------------------------------------------------
// Public serializers

std::string SerializeFacts(const DiscoveryFacts& facts) {
  ByteWriter w;
  WriteFacts(w, facts);
  return w.TakeBytes();
}

std::optional<DiscoveryFacts> DeserializeFacts(std::string_view bytes) {
  ByteReader r(bytes);
  DiscoveryFacts facts = ReadFacts(r);
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return facts;
}

std::string SerializeUnit(const TranslationUnit& unit) {
  ByteWriter w;
  WriteUnit(w, unit);
  return w.TakeBytes();
}

std::optional<TranslationUnit> DeserializeUnit(std::string_view bytes) {
  ByteReader r(bytes);
  TranslationUnit unit = ReadUnit(r);
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return unit;
}

std::string SerializeReports(const CachedFileReports& reports) {
  ByteWriter w;
  WriteReports(w, reports);
  return w.TakeBytes();
}

std::optional<CachedFileReports> DeserializeReports(std::string_view bytes) {
  ByteReader r(bytes);
  CachedFileReports shard = ReadReports(r);
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return shard;
}

// Field order mirrors FingerprintKnowledgeBase exactly: anything the
// fingerprint observes, the snapshot round-trips, so a deserialized KB
// fingerprints identically to the replayed one it was stored from.
std::string SerializeKb(const KnowledgeBase& kb) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(kb.apis().size()));
  for (const auto& [name, api] : kb.apis()) {
    w.Str(name);
    w.U8(static_cast<uint8_t>(api.direction));
    w.U8(static_cast<uint8_t>(api.category));
    w.Bool(api.returns_error);
    w.Bool(api.may_return_null);
    w.Bool(api.returns_object);
    w.I32(api.object_param);
    w.I32(api.consumed_param);
    w.Bool(api.hidden);
    w.Bool(api.tests_zero);
    w.Bool(api.discovered);
  }
  w.U32(static_cast<uint32_t>(kb.smart_loops().size()));
  for (const auto& [name, loop] : kb.smart_loops()) {
    w.Str(name);
    w.I32(loop.iterator_arg);
    w.Str(loop.embedded_api);
  }
  w.U32(static_cast<uint32_t>(kb.refcounted_structs().size()));
  for (const std::string& s : kb.refcounted_structs()) {
    w.Str(s);
  }
  w.U32(static_cast<uint32_t>(kb.ownership_sinks().size()));
  for (const auto& [name, param] : kb.ownership_sinks()) {
    w.Str(name);
    w.I32(param);
  }
  w.U32(static_cast<uint32_t>(kb.param_derefs().size()));
  for (const auto& [name, params] : kb.param_derefs()) {
    w.Str(name);
    w.U32(static_cast<uint32_t>(params.size()));
    for (const int p : params) {
      w.I32(p);
    }
  }
  w.U32(static_cast<uint32_t>(kb.refcount_fields().size()));
  for (const std::string& f : kb.refcount_fields()) {
    w.Str(f);
  }
  w.U32(static_cast<uint32_t>(kb.extra_free_functions().size()));
  for (const std::string& f : kb.extra_free_functions()) {
    w.Str(f);
  }
  return w.TakeBytes();
}

std::optional<KnowledgeBase> DeserializeKb(std::string_view bytes) {
  ByteReader r(bytes);
  KnowledgeBase kb;
  const uint32_t api_count = r.Count();
  for (uint32_t i = 0; i < api_count && r.ok(); ++i) {
    RefApiInfo api;
    api.name = r.Str();
    api.direction = static_cast<RefDirection>(r.U8());
    api.category = static_cast<ApiCategory>(r.U8());
    api.returns_error = r.Bool();
    api.may_return_null = r.Bool();
    api.returns_object = r.Bool();
    api.object_param = r.I32();
    api.consumed_param = r.I32();
    api.hidden = r.Bool();
    api.tests_zero = r.Bool();
    api.discovered = r.Bool();
    kb.AddApi(std::move(api));
  }
  const uint32_t loop_count = r.Count();
  for (uint32_t i = 0; i < loop_count && r.ok(); ++i) {
    SmartLoopInfo loop;
    loop.name = r.Str();
    loop.iterator_arg = r.I32();
    loop.embedded_api = r.Str();
    kb.AddSmartLoop(std::move(loop));
  }
  const uint32_t struct_count = r.Count();
  for (uint32_t i = 0; i < struct_count && r.ok(); ++i) {
    kb.AddRefcountedStruct(r.Str());
  }
  const uint32_t sink_count = r.Count();
  for (uint32_t i = 0; i < sink_count && r.ok(); ++i) {
    std::string name = r.Str();
    const int param = r.I32();
    kb.AddOwnershipSink(std::move(name), param);
  }
  const uint32_t deref_count = r.Count();
  for (uint32_t i = 0; i < deref_count && r.ok(); ++i) {
    std::string name = r.Str();
    const uint32_t param_count = r.Count();
    std::vector<int> params;
    params.reserve(param_count);
    for (uint32_t j = 0; j < param_count && r.ok(); ++j) {
      params.push_back(r.I32());
    }
    kb.AddParamDerefs(std::move(name), std::move(params));
  }
  const uint32_t field_count = r.Count();
  for (uint32_t i = 0; i < field_count && r.ok(); ++i) {
    kb.AddRefcountField(r.Str());
  }
  const uint32_t free_count = r.Count();
  for (uint32_t i = 0; i < free_count && r.ok(); ++i) {
    kb.AddFreeFunction(r.Str());
  }
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return kb;
}

// ---------------------------------------------------------------------------
// Object store

ScanCache::ScanCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    return;
  }
  auto local = std::make_shared<LocalStore>(dir_);
  if (!local->ok()) {
    dir_.clear();  // degrade to a disabled cache rather than failing the scan
    return;
  }
  store_ = std::move(local);
}

ScanCache::ScanCache(std::shared_ptr<ObjectStore> store) : store_(std::move(store)) {}

namespace {

// objects/<first two key hex chars>/<rest>.<ext> — the fan-out keeps any
// one directory from accumulating the whole tree's entries.
std::string ObjectRelPath(const CacheKey& key, std::string_view suffix) {
  const std::string hex = key.Hex();
  std::string rel = "objects/";
  rel += hex.substr(0, 2);
  rel += '/';
  rel += hex.substr(2);
  rel += suffix;
  return rel;
}

}  // namespace

bool ScanCache::LoadObject(const std::string& name, uint8_t kind, std::string& payload) const {
  if (!enabled()) {
    return false;
  }
  TelemetrySpan span("cache.load", name);
  // An injected `cache.load` fault models a read that returned garbage (a
  // torn write, a bad sector): it degrades to a miss exactly like a real
  // checksum failure, and counts as a corrupt load either way.
  try {
    MaybeFault("cache.load", name);
  } catch (const FaultInjected&) {
    corrupt_loads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::string blob;
  if (!store_->Get(name, blob)) {
    return false;
  }
  // Header: magic, version, kind, payload hash, payload size. The object
  // exists from here on: any validation failure is a corrupt load.
  ByteReader r(blob);
  char magic[4];
  for (char& c : magic) {
    c = static_cast<char>(r.U8());
  }
  const uint32_t version = r.U32();
  const uint8_t stored_kind = r.U8();
  const uint64_t payload_hash = r.U64();
  const uint32_t payload_size = r.U32();
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      version != kFormatVersion || stored_kind != kind) {
    corrupt_loads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  constexpr size_t kHeaderSize = 4 + 4 + 1 + 8 + 4;
  if (blob.size() != kHeaderSize + payload_size) {
    corrupt_loads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  payload = blob.substr(kHeaderSize);
  if (HashBytes(payload) != payload_hash) {
    corrupt_loads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void ScanCache::StoreObject(const std::string& name, uint8_t kind, std::string_view payload,
                            std::string_view kind_name, std::string_view source) {
  if (!enabled()) {
    return;
  }
  TelemetrySpan span("cache.store", name);
  // A failed store only costs the next scan a miss; never fail the scan.
  try {
    MaybeFault("cache.store", name);
  } catch (const FaultInjected&) {
    return;
  }
  ByteWriter w;
  for (const char c : kMagic) {
    w.U8(static_cast<uint8_t>(c));
  }
  w.U32(kFormatVersion);
  w.U8(kind);
  w.U64(HashBytes(payload));
  w.U32(static_cast<uint32_t>(payload.size()));
  std::string blob = w.TakeBytes();
  blob.append(payload);
  store_->Put(name, blob, kind_name, source);
}

std::optional<DiscoveryFacts> ScanCache::LoadFacts(const CacheKey& key) const {
  std::string payload;
  if (!LoadObject(ObjectRelPath(key, ".facts"), kKindFacts, payload)) {
    return std::nullopt;
  }
  return DeserializeFacts(payload);
}

void ScanCache::StoreFacts(const CacheKey& key, const DiscoveryFacts& facts,
                           std::string_view source) {
  StoreObject(ObjectRelPath(key, ".facts"), kKindFacts, SerializeFacts(facts), "facts", source);
}

std::optional<TranslationUnit> ScanCache::LoadUnit(const CacheKey& key) const {
  std::string payload;
  if (!LoadObject(ObjectRelPath(key, ".unit"), kKindUnit, payload)) {
    return std::nullopt;
  }
  return DeserializeUnit(payload);
}

void ScanCache::StoreUnit(const CacheKey& key, const TranslationUnit& unit,
                          std::string_view source) {
  StoreObject(ObjectRelPath(key, ".unit"), kKindUnit, SerializeUnit(unit), "unit", source);
}

std::optional<CachedFileReports> ScanCache::LoadReports(const CacheKey& key,
                                                        uint64_t kb_fp) const {
  std::string payload;
  const std::string name = ObjectRelPath(key, "-" + HexU64(kb_fp) + ".reports");
  if (!LoadObject(name, kKindReports, payload)) {
    return std::nullopt;
  }
  return DeserializeReports(payload);
}

void ScanCache::StoreReports(const CacheKey& key, uint64_t kb_fp,
                             const CachedFileReports& reports, std::string_view source) {
  StoreObject(ObjectRelPath(key, "-" + HexU64(kb_fp) + ".reports"), kKindReports,
              SerializeReports(reports), "reports", source);
}

std::optional<KnowledgeBase> ScanCache::LoadKb(const CacheKey& key) const {
  std::string payload;
  if (!LoadObject(ObjectRelPath(key, ".kb"), kKindKb, payload)) {
    return std::nullopt;
  }
  return DeserializeKb(payload);
}

void ScanCache::StoreKb(const CacheKey& key, const KnowledgeBase& kb, std::string_view source) {
  StoreObject(ObjectRelPath(key, ".kb"), kKindKb, SerializeKb(kb), "kb", source);
}

std::vector<ScanCache::IndexEntry> ScanCache::ReadIndex() const {
  if (!enabled()) {
    return {};
  }
  return store_->Index();
}

}  // namespace refscan
