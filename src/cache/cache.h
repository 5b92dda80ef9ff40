// Persistent content-addressed incremental scan cache (DESIGN.md §5.8).
//
// The steady-state workload of a per-commit scanning service is "the same
// tree with a small diff". The cache turns that from O(tree) into O(diff)
// by storing, per source file, three artifacts in a ccache/Bazel-style
// object store under <dir>/objects/:
//
//   <key>.facts     the file's DiscoveryFacts (the KB-independent stage-2
//                   projection, see src/kb) — replaces parsing on the warm
//                   non-interprocedural path
//   <key>.unit      the parsed TranslationUnit — replaces parsing in
//                   interprocedural mode, where stage 1 must hold every
//                   unit for stage 2.5. A file whose reports miss after a
//                   KB-fingerprint change is re-parsed in stage 3, not
//                   loaded from here.
//   <key>-<kbfp>.reports   the raw stage-3 report shard + function count
//
// plus one tree-level artifact:
//
//   <key>.kb        the whole post-discovery KnowledgeBase, keyed by the
//                   ordered per-file facts plus the pre-discovery KB
//                   fingerprint — discovery is purely additive and
//                   deterministic in that pair, so a snapshot hit replaces
//                   both replay rounds (the warm-rescan bottleneck:
//                   classifying ~1k discovered APIs from scratch). Stored
//                   only by scans that parsed all or none of their files
//                   (RunDiscoverStage, src/checkers/scan_stages.h).
//
// <key> is 128 bits of HashBytes (serial.h) over (format version, file path,
// file content, options fingerprint); <kbfp> additionally pins the exact
// post-discovery knowledge base, because a file's reports are a pure
// function of (content, KB, options). Loads validate magic, version, kind
// and a payload checksum, and treat any mismatch as a miss — a corrupted or
// truncated entry can cost time, never correctness. Raw blob I/O goes
// through an ObjectStore backend (src/cache/store.h): LocalStore writes to
// a temporary file and renames, so concurrent scans sharing a cache
// directory only ever observe complete objects, and appends one index.tsv
// line per stored object for inspection (readers skip malformed lines).

#ifndef REFSCAN_CACHE_CACHE_H_
#define REFSCAN_CACHE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/ast/ast.h"
#include "src/cache/serial.h"
#include "src/cache/store.h"
#include "src/checkers/report.h"
#include "src/kb/kb.h"

namespace refscan {

// 128-bit content address (two independently seeded HashBytes lanes).
struct CacheKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  std::string Hex() const;
  bool operator==(const CacheKey&) const = default;
};

// Key for one file's cache entries. Includes the path (two identical files
// at different paths produce distinct units and reports), the content, and
// the scan-options fingerprint.
CacheKey MakeFileKey(std::string_view path, std::string_view content, uint64_t options_fp);

// Key for the tree-level KB snapshot. Post-discovery KB state is a pure
// function of (pre-discovery KB, ordered per-file facts, nesting
// threshold): discovery only ever inserts, and every insert is determined
// by the facts sequence. Hashing exactly those inputs (plus the options
// fingerprint and format version, via MakeFileKey's framing) is what makes
// a snapshot hit sound. Note a comment-only edit leaves a file's facts
// unchanged, so small cosmetic diffs still hit — a snapshot that an earlier
// cold or unchanged scan stored (RunDiscoverStage's store rule).
CacheKey MakeKbSnapshotKey(uint64_t base_kb_fp, int nesting_threshold,
                           const std::vector<const DiscoveryFacts*>& facts, uint64_t options_fp);

// Deterministic digest of the entire knowledge base (APIs with all flags,
// smartloops, refcounted structs, ownership sinks, param-deref facts) in
// map order: HashBytes of its SerializeKb snapshot bytes under the cache
// format version. Two scans whose post-discovery KBs fingerprint equal run
// the checkers over identical inputs, which is what lets stage 3 be skipped.
uint64_t FingerprintKnowledgeBase(const KnowledgeBase& kb);

// One file's cached stage-3 output: the raw (pre-dedup) report shard in
// checker emission order, the file's function count for ScanStats, and any
// function bodies the parser quarantined (DESIGN.md §5.15) — a spliced
// shard must reproduce the degraded-functions section exactly like a cold
// check would.
struct CachedFileReports {
  std::vector<BugReport> reports;
  uint64_t functions = 0;
  std::vector<DegradedFunction> degraded;
};

// Field lists (serial.h) of the persisted artifacts. BugReport's also
// travels in the serve reply. Their bytes must not move.
template <typename IO, Value<DiscoveryFacts::Field> F>
void Transfer(IO& io, F& f) {
  Transfer(io, f.direct_refcounter, f.nested_tag, f.name);
}

template <typename IO, Value<DiscoveryFacts::Struct> S>
void Transfer(IO& io, S& s) {
  Transfer(io, s.name, s.fields);
}

template <typename IO, Value<DiscoveryFacts::RefEvent> E>
void Transfer(IO& io, E& ev) {
  Transfer(io, ev.is_call, ev.callee, ev.arg1_param, ev.increase);
}

template <typename IO, Value<DiscoveryFacts::Function> F>
void Transfer(IO& io, F& fn) {
  Transfer(io, fn.name, fn.returns_pointer, fn.has_return_null, fn.has_error_return,
           fn.sink_param, fn.events);
}

template <typename IO, Value<DiscoveryFacts::Macro> M>
void Transfer(IO& io, M& m) {
  Transfer(io, m.name, m.params, m.body);
}

template <typename IO, Value<DiscoveryFacts> F>
void Transfer(IO& io, F& facts) {
  Transfer(io, facts.structs, facts.functions, facts.macros);
}

template <typename IO, Value<BugReport> B>
void Transfer(IO& io, B& b) {
  Transfer(io, b.anti_pattern, b.impact, b.file, b.function, b.line, b.exit_line, b.api, b.object,
           b.template_path, b.message);
}

template <typename IO, Value<DegradedFunction> D>
void Transfer(IO& io, D& d) {
  Transfer(io, d.name, d.line, d.what);
}

template <typename IO, Value<CachedFileReports> R>
void Transfer(IO& io, R& shard) {
  Transfer(io, shard.functions, shard.reports, shard.degraded);
}

class ScanCache {
 public:
  // Backs the cache with a store (MakeScanStore picks it from the scan
  // options: a LocalStore directory or a resident MemoryStore). The artifact semantics — keys, header framing,
  // corruption accounting — are the same over every store; only raw blob
  // I/O differs. A null store constructs a disabled cache (every Load
  // misses, every Store is a no-op) so callers need no branches.
  explicit ScanCache(std::shared_ptr<ObjectStore> store);

  bool enabled() const { return store_ != nullptr; }

  std::optional<DiscoveryFacts> LoadFacts(const CacheKey& key) const;
  void StoreFacts(const CacheKey& key, const DiscoveryFacts& facts, std::string_view source);

  std::optional<TranslationUnit> LoadUnit(const CacheKey& key) const;
  void StoreUnit(const CacheKey& key, const TranslationUnit& unit, std::string_view source);

  std::optional<CachedFileReports> LoadReports(const CacheKey& key, uint64_t kb_fp) const;
  void StoreReports(const CacheKey& key, uint64_t kb_fp, const CachedFileReports& reports,
                    std::string_view source);

  std::optional<KnowledgeBase> LoadKb(const CacheKey& key) const;
  void StoreKb(const CacheKey& key, const KnowledgeBase& kb, std::string_view source);

  // Objects that existed on disk but failed validation (bad magic/version/
  // kind byte, truncation, checksum mismatch) or whose read failed at the
  // `cache.load` fault-injection site. Every one degraded to a miss; the
  // engine surfaces the count as ScanStats::cache_corrupt. Plain absent
  // objects are not counted.
  uint64_t corrupt_loads() const { return corrupt_loads_.load(std::memory_order_relaxed); }

  // index.tsv bookkeeping: kind, object file name, source path, stored
  // bytes. Malformed lines are skipped, not fatal.
  using IndexEntry = CacheIndexEntry;
  std::vector<IndexEntry> ReadIndex() const;

 private:
  bool LoadObject(const std::string& name, uint8_t kind, std::string& payload) const;
  void StoreObject(const std::string& name, uint8_t kind, std::string_view payload,
                   std::string_view kind_name, std::string_view source);

  std::shared_ptr<ObjectStore> store_;
  mutable std::atomic<uint64_t> corrupt_loads_{0};
};

// Serializers, exposed for tests (round-trip and corruption suites).
std::string SerializeFacts(const DiscoveryFacts& facts);
std::optional<DiscoveryFacts> DeserializeFacts(std::string_view bytes);
std::string SerializeUnit(const TranslationUnit& unit);
std::optional<TranslationUnit> DeserializeUnit(std::string_view bytes);
std::string SerializeReports(const CachedFileReports& reports);
std::optional<CachedFileReports> DeserializeReports(std::string_view bytes);
std::string SerializeKb(const KnowledgeBase& kb);
std::optional<KnowledgeBase> DeserializeKb(std::string_view bytes);

}  // namespace refscan

#endif  // REFSCAN_CACHE_CACHE_H_
