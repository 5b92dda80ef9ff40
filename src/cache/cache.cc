#include "src/cache/cache.h"

#include <cstdio>
#include <ranges>

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
constexpr uint32_t kMagic = 0x43534652;  // "RFSC" read as a little-endian word

constexpr uint8_t kKindFacts = 1;
constexpr uint8_t kKindUnit = 2;
constexpr uint8_t kKindReports = 3;
constexpr uint8_t kKindKb = 4;

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// The header in front of every stored payload. A reader sets `kind` to the
// kind it expects: the magic, the version and the kind are all pinned.
struct ObjectHeader {
  uint8_t kind = 0;
  uint64_t payload_hash = 0;
  uint32_t payload_size = 0;
};
constexpr size_t kHeaderSize = 4 + 4 + 1 + 8 + 4;

template <typename IO, Value<ObjectHeader> H>
void Transfer(IO& io, H& h) {
  Transfer(io, Pinned{kMagic}, Pinned{kFormatVersion}, Pinned{h.kind}, h.payload_hash,
           h.payload_size);
}

// Units read their Expr and Stmt nodes, and the nodes' child lists, into
// the unit's own arena.
class UnitReader : public ByteReader {
 public:
  UnitReader(std::string_view bytes, Arena& arena) : ByteReader(bytes), arena_(arena) {}
  Arena& arena() { return arena_; }

 private:
  Arena& arena_;
};

template <typename T>
std::optional<T> DecodeOrNull(std::string_view bytes) {
  T value;
  if (!Decode(bytes, value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

// The field lists (serial.h) of the formats only the cache stores. They are
// in namespace refscan, beside the types, because that is where
// argument-dependent lookup finds them from Encode and Decode.

// ---------------------------------------------------------------------------
// TranslationUnit. Symbols travel as their text (ids depend on interning
// order and never leave the process) and are re-interned on read.

template <typename IO, Value<Symbol> S>
void Transfer(IO& io, S& symbol) {
  std::string_view text = symbol.view();
  Transfer(io, text);
  if constexpr (IO::kReading) {
    symbol = Intern(text);
  }
}

// A nullable node: a presence byte, then the node.
template <typename IO, typename P>
  requires Value<P, Expr*> || Value<P, Stmt*>
void Transfer(IO& io, P& node) {
  bool present = node != nullptr;
  Transfer(io, present);
  if constexpr (IO::kReading) {
    node = present ? io.arena().template New<std::remove_pointer_t<P>>() : nullptr;
  }
  if (present) {
    Transfer(io, *node);
  }
}

template <typename IO, typename V>
  requires Value<V, ArenaVec<Expr*>> || Value<V, ArenaVec<Stmt*>>
void Transfer(IO& io, V& children) {
  using Node = std::remove_cvref_t<decltype(children[0])>;
  TransferEach<Node>(io, children, [&](Node child) {
    if constexpr (IO::kReading) {
      children.push_back(child, io.arena());
    }
  });
}

template <typename IO, Value<Expr> E>
void Transfer(IO& io, E& e) {
  Transfer(io, e.kind, e.line, e.value, e.arrow, e.args);
}

template <typename IO, Value<Stmt> S>
void Transfer(IO& io, S& s) {
  Transfer(io, s.kind, s.line, s.name, s.type, s.expr, s.init, s.incr, s.body, s.else_body,
           s.stmts);
}

template <typename IO, Value<MacroDef> M>
void Transfer(IO& io, M& m) {
  Transfer(io, m.name, m.params, m.body, m.line);
}

template <typename IO, Value<StructField> F>
void Transfer(IO& io, F& f) {
  Transfer(io, f.type, f.name);
}

template <typename IO, Value<StructDef> S>
void Transfer(IO& io, S& s) {
  Transfer(io, s.name, s.line, s.fields);
}

template <typename IO, Value<DesignatedInit> D>
void Transfer(IO& io, D& d) {
  Transfer(io, d.field, d.value);
}

template <typename IO, Value<GlobalVar> G>
void Transfer(IO& io, G& g) {
  Transfer(io, g.type, g.name, g.line, g.inits);
}

template <typename IO, Value<Param> P>
void Transfer(IO& io, P& p) {
  Transfer(io, p.type, p.name);
}

template <typename IO, Value<FunctionDef> F>
void Transfer(IO& io, F& fn) {
  Transfer(io, fn.return_type, fn.name, fn.line, fn.is_static, fn.params, fn.body);
}

template <typename IO, Value<TranslationUnit> U>
void Transfer(IO& io, U& unit) {
  Transfer(io, unit.path, unit.macros, unit.structs, unit.globals, unit.functions, unit.degraded);
}

// ---------------------------------------------------------------------------
// KnowledgeBase, in map order. A read rebuilds it through KnowledgeBase::Add*,
// which keep the lookup indexes in step with the maps.

template <typename IO, Value<RefApiInfo> A>
void Transfer(IO& io, A& api) {
  Transfer(io, api.name, api.direction, api.category, api.returns_error, api.may_return_null,
           api.returns_object, api.object_param, api.consumed_param, api.hidden, api.tests_zero,
           api.discovered);
}

template <typename IO, Value<SmartLoopInfo> L>
void Transfer(IO& io, L& loop) {
  Transfer(io, loop.name, loop.iterator_arg, loop.embedded_api);
}

template <typename IO, Value<KnowledgeBase> K>
void Transfer(IO& io, K& kb) {
  using Sink = std::pair<std::string, int>;
  using Derefs = std::pair<std::string, std::vector<int>>;
  TransferEach<RefApiInfo>(io, std::views::values(kb.apis()),
                           [&](auto&& api) { kb.AddApi(std::move(api)); });
  TransferEach<SmartLoopInfo>(io, std::views::values(kb.smart_loops()),
                              [&](auto&& loop) { kb.AddSmartLoop(std::move(loop)); });
  TransferEach<std::string>(io, kb.refcounted_structs(),
                            [&](auto&& name) { kb.AddRefcountedStruct(std::move(name)); });
  TransferEach<Sink>(io, kb.ownership_sinks(), [&](auto&& sink) {
    kb.AddOwnershipSink(std::move(sink.first), sink.second);
  });
  TransferEach<Derefs>(io, kb.param_derefs(), [&](auto&& derefs) {
    kb.AddParamDerefs(std::move(derefs.first), std::move(derefs.second));
  });
  TransferEach<std::string>(io, kb.refcount_fields(),
                            [&](auto&& field) { kb.AddRefcountField(std::move(field)); });
  TransferEach<std::string>(io, kb.extra_free_functions(),
                            [&](auto&& name) { kb.AddFreeFunction(std::move(name)); });
}

// ---------------------------------------------------------------------------
// Keys and fingerprints

std::string CacheKey::Hex() const { return HexU64(hi) + HexU64(lo); }

CacheKey MakeFileKey(std::string_view path, std::string_view content, uint64_t options_fp) {
  const Hash128 content_hash = HashBytesDual(content);
  const Hash128 meta_hash = HashBytesDual(Encode(kFormatVersion, path, options_fp));
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
  std::vector<std::pair<uint64_t, uint64_t>> digests;
  digests.reserve(facts.size());
  for (const DiscoveryFacts* f : facts) {
    const Hash128 h = HashBytesDual(SerializeFacts(*f));
    digests.emplace_back(h.hi, h.lo);
  }
  return MakeFileKey("<kb-snapshot>", Encode(base_kb_fp, nesting_threshold, digests), options_fp);
}

// The digest of the snapshot bytes: the fingerprint observes exactly what a
// snapshot round-trips, so a deserialized KB fingerprints identically to the
// replayed one it was stored from.
uint64_t FingerprintKnowledgeBase(const KnowledgeBase& kb) {
  return HashBytes(SerializeKb(kb), kFormatVersion);
}

// ---------------------------------------------------------------------------
// Public serializers

std::string SerializeFacts(const DiscoveryFacts& facts) { return Encode(facts); }

std::optional<DiscoveryFacts> DeserializeFacts(std::string_view bytes) {
  return DecodeOrNull<DiscoveryFacts>(bytes);
}

std::string SerializeUnit(const TranslationUnit& unit) { return Encode(unit); }

std::optional<TranslationUnit> DeserializeUnit(std::string_view bytes) {
  TranslationUnit unit;
  unit.arena = std::make_shared<Arena>();
  UnitReader r(bytes, *unit.arena);
  Transfer(r, unit);
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return unit;
}

std::string SerializeReports(const CachedFileReports& reports) { return Encode(reports); }

std::optional<CachedFileReports> DeserializeReports(std::string_view bytes) {
  return DecodeOrNull<CachedFileReports>(bytes);
}

std::string SerializeKb(const KnowledgeBase& kb) { return Encode(kb); }

std::optional<KnowledgeBase> DeserializeKb(std::string_view bytes) {
  return DecodeOrNull<KnowledgeBase>(bytes);
}

// ---------------------------------------------------------------------------
// Object store

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
  // The object exists from here on: any validation failure is a corrupt
  // load.
  ObjectHeader header{kind};
  ByteReader r(blob);
  Transfer(r, header);
  if (!r.ok() || blob.size() != kHeaderSize + header.payload_size) {
    corrupt_loads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  payload = blob.substr(kHeaderSize);
  if (HashBytes(payload) != header.payload_hash) {
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
  std::string blob = Encode(ObjectHeader{kind, HashBytes(payload),
                                         static_cast<uint32_t>(payload.size())});
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
