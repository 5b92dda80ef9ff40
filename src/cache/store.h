// Object-store backends for the content-addressed scan cache (DESIGN.md
// §5.8, §5.13).
//
// ScanCache (cache.h) owns the artifact semantics — keys, header framing,
// checksums, corruption accounting. What it reads and writes are opaque
// named blobs, and that is the seam this header abstracts: an ObjectStore
// is a name → blob map with durable puts. Two implementations:
//
//   LocalStore   the on-disk layout: <dir>/objects/<xx>/<rest>, tmp+rename
//                atomic writes, an append-only index.tsv. Index appends are
//                one O_APPEND write(2) per entry (lines ≤ PIPE_BUF are
//                appended atomically even across processes; longer lines
//                take an flock), so any number of `--cache-dir` scans on
//                one host share one cache directory without tearing the
//                index. A shared directory is how processes share a warm
//                cache.
//
//   MemoryStore  the resident daemon's in-process store (`refscan serve`).
//
// RunCacheGc size-caps a local store by evicting least-recently-used
// objects (LocalStore::Get touches mtime on every hit, so mtime order is
// LRU order, not write order).

#ifndef REFSCAN_CACHE_STORE_H_
#define REFSCAN_CACHE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace refscan {

// One index.tsv line: kind, object file name, source path, payload bytes.
struct CacheIndexEntry {
  std::string kind;
  std::string object;
  std::string source;
  uint64_t bytes = 0;
};

// Abstract named-blob store. Implementations must be safe for concurrent
// calls from multiple threads (the scan stages fan out over a pool).
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  // Fetches the blob stored under `name`. False = absent or unreadable
  // (the caller treats both as a miss).
  virtual bool Get(const std::string& name, std::string& blob) = 0;

  // Durably stores `blob` under `name`; `kind_name` and `source` feed the
  // index for inspection. Failures are silent by design — a lost put costs
  // the next scan a miss.
  virtual void Put(const std::string& name, std::string_view blob, std::string_view kind_name,
                   std::string_view source) = 0;

  // The store's index entries (empty for stores without one).
  virtual std::vector<CacheIndexEntry> Index() const = 0;
};

// On-disk store. An inaccessible directory yields ok() == false; callers
// degrade to a disabled cache. A name that could reach outside the directory
// (absolute, or with an empty, `.` or `..` segment) reads as a miss and is
// never written.
class LocalStore : public ObjectStore {
 public:
  explicit LocalStore(std::string dir);

  bool ok() const { return !dir_.empty(); }

  bool Get(const std::string& name, std::string& blob) override;
  void Put(const std::string& name, std::string_view blob, std::string_view kind_name,
           std::string_view source) override;
  std::vector<CacheIndexEntry> Index() const override;

 private:
  void AppendIndexLine(const std::string& line);

  std::string dir_;
  std::atomic<uint64_t> tmp_counter_{0};
};

// In-memory store for resident processes (`refscan serve`, DESIGN.md
// §5.14): the daemon's KB snapshots, facts, units and report shards stay
// hot across requests without touching disk. Mutex-guarded map — cache
// traffic is tiny next to parsing, and a single lock keeps eviction (none:
// the daemon's working set is one tree's artifacts) and accounting trivial.
class MemoryStore : public ObjectStore {
 public:
  bool Get(const std::string& name, std::string& blob) override;
  void Put(const std::string& name, std::string_view blob, std::string_view kind_name,
           std::string_view source) override;
  std::vector<CacheIndexEntry> Index() const override;

  size_t objects() const;
  uint64_t bytes() const;

 private:
  struct Entry {
    std::string blob;
    std::string kind;
    std::string source;
  };
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  uint64_t bytes_ = 0;
};

// Size-capped LRU eviction for a local cache directory (`refscan cache gc`).
// Deletes least-recently-used objects (mtime order; LocalStore::Get touches
// mtime on hit) until the objects/ tree holds at most `max_bytes`, then
// compacts index.tsv down to the surviving objects (dropping dead and
// superseded-duplicate lines). Best-effort under concurrent writers: a
// racing store can push the total back over the cap, never corrupt it.
// A `dir` without an objects/ directory is not a cache: nullopt, and
// nothing is written.
struct CacheGcStats {
  uint64_t kept_objects = 0;
  uint64_t kept_bytes = 0;
  uint64_t evicted_objects = 0;
  uint64_t evicted_bytes = 0;
};
std::optional<CacheGcStats> RunCacheGc(const std::string& dir, uint64_t max_bytes);

}  // namespace refscan

#endif  // REFSCAN_CACHE_STORE_H_
