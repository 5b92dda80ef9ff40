// Object-store backends for the content-addressed scan cache (DESIGN.md
// §5.8, §5.13).
//
// ScanCache (cache.h) owns the artifact semantics — keys, header framing,
// checksums, corruption accounting. What it reads and writes are opaque
// named blobs, and that is the seam this header abstracts: an ObjectStore
// is a name → blob map with durable puts. Two implementations:
//
//   LocalStore   the original on-disk layout: <dir>/objects/<xx>/<rest>,
//                tmp+rename atomic writes, an append-only index.tsv. Index
//                appends are one O_APPEND write(2) per entry (lines ≤
//                PIPE_BUF are appended atomically even across processes;
//                longer lines take an flock), so N worker processes can
//                share one cache directory without tearing the index.
//
//   RemoteStore  a client for `refscan cached`, the shared cache server:
//                content-addressed get/put over the same length-prefixed
//                Unix-socket framing as the shard workers (support/ipc.h).
//                A fleet of scanners points --cache-server at one warm
//                store; the first scanner of a commit pays, everyone else
//                splices. Any transport failure degrades to a miss /
//                dropped put — the server dying mid-scan can cost time,
//                never output.
//
// CacheServer is the matching server: a LocalStore behind the shared
// FrameServer lifecycle (support/server.h). RunCacheGc size-caps a local store by evicting
// least-recently-used objects (LocalStore::Get touches mtime on every hit,
// so mtime order is LRU order, not write order).

#ifndef REFSCAN_CACHE_STORE_H_
#define REFSCAN_CACHE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/support/ipc.h"
#include "src/support/server.h"

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

  // Fetches the blob stored under `name`. False = absent or unreachable
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
// never written: CacheServer hands client-supplied names straight to it.
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

// Client for a CacheServer. One connection, serialized by a mutex (cache
// traffic is small next to parsing; a connection pool is not worth the
// states). Connects lazily on first use with the bounded jittered backoff
// of `backoff` (one immediate try plus retries — a server still binding its
// socket, or restarting, is a transient, not an outage). A transport
// failure mid-conversation reconnects and replays the request once (get/put
// are idempotent content-addressed ops); only when the whole budget is
// exhausted does the store mark itself broken and degrade every later call
// to a cheap miss, so a fleet scan outlives its cache server.
class RemoteStore : public ObjectStore {
 public:
  explicit RemoteStore(std::string socket_path, BackoffPolicy backoff = {});

  bool Get(const std::string& name, std::string& blob) override;
  void Put(const std::string& name, std::string_view blob, std::string_view kind_name,
           std::string_view source) override;
  std::vector<CacheIndexEntry> Index() const override { return {}; }

 private:
  bool EnsureConnected();  // caller holds mu_

  std::string socket_path_;
  BackoffPolicy backoff_;
  std::mutex mu_;
  OwnedFd fd_;
  bool broken_ = false;
};

// Cache server: serves get/put for one LocalStore over a Unix socket, on
// the shared daemon lifecycle (support/server.h). The LocalStore's atomic
// object writes and index appends make concurrent connections safe. An
// unusable directory makes Start fail. Counts `cached.gets`, `cached.hits`
// and `cached.puts` in metrics().
class CacheServer : public FrameServer {
 public:
  CacheServer(std::string dir, std::string socket_path);
  ~CacheServer() override { Stop(); }

 private:
  bool ServeFrame(int fd, uint8_t type, const std::string& payload) override;

  LocalStore store_;
};

// Size-capped LRU eviction for a local cache directory (`refscan cache gc`).
// Deletes least-recently-used objects (mtime order; LocalStore::Get touches
// mtime on hit) until the objects/ tree holds at most `max_bytes`, then
// compacts index.tsv down to the surviving objects (dropping dead and
// superseded-duplicate lines). Best-effort under concurrent writers: a
// racing store can push the total back over the cap, never corrupt it.
struct CacheGcStats {
  uint64_t kept_objects = 0;
  uint64_t kept_bytes = 0;
  uint64_t evicted_objects = 0;
  uint64_t evicted_bytes = 0;
};
CacheGcStats RunCacheGc(const std::string& dir, uint64_t max_bytes);

}  // namespace refscan

#endif  // REFSCAN_CACHE_STORE_H_
