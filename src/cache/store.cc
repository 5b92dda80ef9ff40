#include "src/cache/store.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "src/cache/serial.h"
#include "src/support/fs.h"

namespace refscan {

namespace stdfs = std::filesystem;

namespace {

// Cache-server frame types (one request frame in, one reply frame out, in
// lockstep — the put ack keeps the stream framed and gives natural
// backpressure).
constexpr uint8_t kCacheGet = 1;    // payload: the object name as a string
constexpr uint8_t kCacheHit = 2;    // payload: the blob
constexpr uint8_t kCacheMiss = 3;   // empty
constexpr uint8_t kCachePut = 4;    // payload: CachePut
constexpr uint8_t kCachePutOk = 5;  // empty

// A put request. The server reads it as views into the frame's payload.
struct CachePut {
  std::string_view name;
  std::string_view kind;
  std::string_view source;
  std::string_view blob;
};

template <typename IO, Value<CachePut> P>
void Transfer(IO& io, P& put) {
  Transfer(io, put.name, put.kind, put.source, put.blob);
}

// Writes all of `data`, looping over partial writes and EINTR.
bool WriteFull(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

// Object names reach LocalStore from ScanCache's key formatter and, through
// `refscan cached`, from any client of the socket. Only a relative name made
// of real segments stays inside the store directory once joined to it: an
// absolute name, an empty, `.` or `..` segment, or a NUL (which would cut
// the path short at the syscall) is refused.
bool IsSafeObjectName(std::string_view name) {
  if (name.empty() || name.front() == '/' || name.find('\0') != std::string_view::npos) {
    return false;
  }
  for (size_t start = 0;;) {
    const size_t slash = name.find('/', start);
    const std::string_view segment = name.substr(start, slash - start);
    if (segment.empty() || segment == "." || segment == "..") {
      return false;
    }
    if (slash == std::string_view::npos) {
      return true;
    }
    start = slash + 1;
  }
}

std::vector<CacheIndexEntry> ParseIndexFile(const stdfs::path& path) {
  std::vector<CacheIndexEntry> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    CacheIndexEntry entry;
    const size_t t1 = line.find('\t');
    const size_t t2 = t1 == std::string::npos ? std::string::npos : line.find('\t', t1 + 1);
    const size_t t3 = t2 == std::string::npos ? std::string::npos : line.find('\t', t2 + 1);
    if (t3 == std::string::npos) {
      continue;  // malformed line: skip, don't fail
    }
    entry.kind = line.substr(0, t1);
    entry.object = line.substr(t1 + 1, t2 - t1 - 1);
    entry.source = line.substr(t2 + 1, t3 - t2 - 1);
    const std::string bytes = line.substr(t3 + 1);
    char* end = nullptr;
    entry.bytes = std::strtoull(bytes.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      continue;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

// ---------------------------------------------------------------------------
// LocalStore

LocalStore::LocalStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    return;
  }
  std::error_code ec;
  stdfs::create_directories(stdfs::path(dir_) / "objects", ec);
  if (ec) {
    dir_.clear();  // degrade to a disabled store rather than failing the scan
  }
}

bool LocalStore::Get(const std::string& name, std::string& blob) {
  if (dir_.empty() || !IsSafeObjectName(name)) {
    return false;
  }
  const std::string target = dir_ + "/" + name;
  const int fd = ::open(target.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  const bool ok = ReadOpenFile(fd, blob);
  if (ok) {
    // Touch mtime on every hit so `cache gc` LRU order reflects use, not
    // write time. Best effort; a read-only cache still serves hits.
    ::futimens(fd, nullptr);
  }
  ::close(fd);
  return ok;
}

void LocalStore::Put(const std::string& name, std::string_view blob, std::string_view kind_name,
                     std::string_view source) {
  if (dir_.empty() || !IsSafeObjectName(name)) {
    return;
  }
  const stdfs::path target = stdfs::path(dir_) / name;
  std::error_code ec;
  stdfs::create_directories(target.parent_path(), ec);
  if (ec) {
    return;
  }
  // Write-then-rename: readers (including concurrent scans sharing this
  // directory) only ever see complete objects. The tmp name mixes in the
  // pid so worker processes sharing a cache never collide.
  const stdfs::path tmp =
      target.parent_path() /
      (target.filename().string() + ".tmp" + std::to_string(::getpid()) + "." +
       std::to_string(tmp_counter_.fetch_add(1, std::memory_order_relaxed)));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return;
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) {
      out.close();
      stdfs::remove(tmp, ec);
      return;
    }
  }
  stdfs::rename(tmp, target, ec);
  if (ec) {
    stdfs::remove(tmp, ec);
    return;
  }

  std::string line;
  line.reserve(kind_name.size() + name.size() + source.size() + 24);
  line.append(kind_name);
  line.push_back('\t');
  line.append(name);
  line.push_back('\t');
  line.append(source);
  line.push_back('\t');
  line.append(std::to_string(blob.size()));
  line.push_back('\n');
  AppendIndexLine(line);
}

// One O_APPEND write(2) per entry: appends of a single line land atomically
// at the end of the file even across processes, so N workers sharing a
// cache directory never tear each other's index lines. Lines past PIPE_BUF
// (deep source paths) fall back to an exclusive flock for the same
// guarantee at any size.
void LocalStore::AppendIndexLine(const std::string& line) {
  const std::string path = (stdfs::path(dir_) / "index.tsv").string();
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return;
  }
  if (line.size() <= PIPE_BUF) {
    WriteFull(fd, line);
  } else if (::flock(fd, LOCK_EX) == 0) {
    WriteFull(fd, line);
    ::flock(fd, LOCK_UN);
  }
  ::close(fd);
}

std::vector<CacheIndexEntry> LocalStore::Index() const {
  if (dir_.empty()) {
    return {};
  }
  return ParseIndexFile(stdfs::path(dir_) / "index.tsv");
}

// ---------------------------------------------------------------------------
// MemoryStore

bool MemoryStore::Get(const std::string& name, std::string& blob) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return false;
  }
  blob = it->second.blob;
  return true;
}

void MemoryStore::Put(const std::string& name, std::string_view blob, std::string_view kind_name,
                      std::string_view source) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  bytes_ += blob.size() - entry.blob.size();
  entry.blob = std::string(blob);
  entry.kind = std::string(kind_name);
  entry.source = std::string(source);
}

std::vector<CacheIndexEntry> MemoryStore::Index() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CacheIndexEntry> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    CacheIndexEntry e;
    e.kind = entry.kind;
    e.object = name;
    e.source = entry.source;
    e.bytes = entry.blob.size();
    entries.push_back(std::move(e));
  }
  // The map iterates in hash order; index consumers expect a stable view.
  std::sort(entries.begin(), entries.end(),
            [](const CacheIndexEntry& a, const CacheIndexEntry& b) { return a.object < b.object; });
  return entries;
}

size_t MemoryStore::objects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t MemoryStore::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

// ---------------------------------------------------------------------------
// RemoteStore

RemoteStore::RemoteStore(std::string socket_path, BackoffPolicy backoff)
    : socket_path_(std::move(socket_path)), backoff_(backoff) {}

bool RemoteStore::EnsureConnected() {
  if (broken_) {
    return false;
  }
  if (fd_.valid()) {
    return true;
  }
  fd_ = ConnectWithRetry(socket_path_, backoff_);
  if (!fd_.valid()) {
    broken_ = true;  // no server within the budget: every later call is a cheap miss
    return false;
  }
  return true;
}

bool RemoteStore::Get(const std::string& name, std::string& blob) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string request = Encode(name);
  // One replay after a transport failure: get is an idempotent read, so a
  // server bounce between requests (EPIPE on send, EOF on recv) costs one
  // reconnect, not the rest of the scan's cache.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!EnsureConnected()) {
      return false;
    }
    uint8_t type = 0;
    if (SendFrame(fd_.get(), kCacheGet, request) &&
        RecvFrame(fd_.get(), type, blob) == RecvOutcome::kFrame) {
      return type == kCacheHit;
    }
    fd_.Reset();
  }
  broken_ = true;  // two fresh connections both died mid-conversation
  return false;
}

void RemoteStore::Put(const std::string& name, std::string_view blob, std::string_view kind_name,
                      std::string_view source) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string request = Encode(CachePut{name, kind_name, source, blob});
  // Same one-replay policy as Get: a put is idempotent (content-addressed
  // name → same bytes), so replaying a maybe-applied put is safe.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!EnsureConnected()) {
      return;
    }
    uint8_t type = 0;
    std::string ack;
    if (SendFrame(fd_.get(), kCachePut, request) &&
        RecvFrame(fd_.get(), type, ack) == RecvOutcome::kFrame && type == kCachePutOk) {
      return;
    }
    fd_.Reset();
  }
  broken_ = true;
}

// ---------------------------------------------------------------------------
// CacheServer

CacheServer::CacheServer(std::string dir, std::string socket_path)
    : FrameServer(std::move(socket_path)), store_(dir) {
  if (!store_.ok()) {
    RefuseStart("cannot create cache directory " + dir);
  }
}

bool CacheServer::ServeFrame(int fd, uint8_t type, const std::string& payload) {
  if (type == kCacheGet) {
    std::string name;
    metrics().Counter("cached.gets").Add(1);
    std::string blob;
    if (Decode(payload, name) && store_.Get(name, blob)) {
      metrics().Counter("cached.hits").Add(1);
      return SendFrame(fd, kCacheHit, blob);
    }
    return SendFrame(fd, kCacheMiss, {});
  }
  if (type == kCachePut) {
    CachePut put;
    if (Decode(payload, put)) {
      metrics().Counter("cached.puts").Add(1);
      store_.Put(std::string(put.name), put.blob, put.kind, put.source);
    }
    return SendFrame(fd, kCachePutOk, {});
  }
  return false;  // unknown frame type: not our protocol, drop the connection
}

// ---------------------------------------------------------------------------
// GC

CacheGcStats RunCacheGc(const std::string& dir, uint64_t max_bytes) {
  CacheGcStats stats;
  const stdfs::path objects = stdfs::path(dir) / "objects";
  struct Obj {
    std::string rel;  // path relative to `dir`, matching index object names
    uint64_t bytes = 0;
    stdfs::file_time_type mtime;
  };
  std::vector<Obj> objs;
  uint64_t total = 0;
  std::error_code ec;
  for (stdfs::recursive_directory_iterator it(objects, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) {
      continue;
    }
    Obj o;
    o.rel = stdfs::relative(it->path(), dir, ec).generic_string();
    o.bytes = it->file_size(ec);
    o.mtime = it->last_write_time(ec);
    if (ec) {
      continue;  // racing eviction/rename: skip
    }
    total += o.bytes;
    objs.push_back(std::move(o));
  }
  // Oldest-first, name as the deterministic tie-break within one mtime tick.
  std::sort(objs.begin(), objs.end(), [](const Obj& a, const Obj& b) {
    if (a.mtime != b.mtime) {
      return a.mtime < b.mtime;
    }
    return a.rel < b.rel;
  });
  std::vector<bool> evicted(objs.size(), false);
  for (size_t i = 0; i < objs.size() && total > max_bytes; ++i) {
    stdfs::remove(stdfs::path(dir) / objs[i].rel, ec);
    if (ec) {
      continue;
    }
    evicted[i] = true;
    total -= objs[i].bytes;
    stats.evicted_objects++;
    stats.evicted_bytes += objs[i].bytes;
  }
  for (size_t i = 0; i < objs.size(); ++i) {
    if (!evicted[i]) {
      stats.kept_objects++;
      stats.kept_bytes += objs[i].bytes;
    }
  }

  // Compact index.tsv down to surviving objects, keeping the newest line
  // per object. Best effort: an append racing the rewrite can lose its
  // index line (inspection only), never an object.
  const stdfs::path index_path = stdfs::path(dir) / "index.tsv";
  std::vector<CacheIndexEntry> entries = ParseIndexFile(index_path);
  std::unordered_set<std::string_view> seen;
  std::vector<const CacheIndexEntry*> kept;
  kept.reserve(entries.size());
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (seen.insert(it->object).second && stdfs::exists(stdfs::path(dir) / it->object, ec)) {
      kept.push_back(&*it);
    }
  }
  std::reverse(kept.begin(), kept.end());
  const stdfs::path tmp = stdfs::path(dir) / "index.tsv.gc";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return stats;
    }
    for (const CacheIndexEntry* e : kept) {
      out << e->kind << '\t' << e->object << '\t' << e->source << '\t' << e->bytes << '\n';
    }
  }
  stdfs::rename(tmp, index_path, ec);
  if (ec) {
    stdfs::remove(tmp, ec);
  }
  return stats;
}

}  // namespace refscan
