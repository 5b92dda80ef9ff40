#include "src/support/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "src/support/faultinject.h"
#include "src/support/telemetry.h"
#include "src/support/threadpool.h"

namespace refscan {

namespace fs = std::filesystem;

namespace {

struct ReadResult {
  std::string text;
  std::string error;
  bool ok = false;
  int retries = 0;
};

// read(2) into [buf, buf + size), retrying EINTR and short reads. Returns the
// bytes read (fewer than `size` only at EOF), or -1 on a read error.
ssize_t ReadFull(int fd, char* buf, size_t size) {
  size_t filled = 0;
  while (filled < size) {
    const ssize_t n = ::read(fd, buf + filled, size - filled);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (n == 0) {
      break;
    }
    filled += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(filled);
}

ReadResult ReadFileContents(const fs::path& path) {
  ReadResult result;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return result;
  }
  result.ok = ReadOpenFile(fd, result.text);
  ::close(fd);
  return result;
}

// ReadFileContents behind the `fs.read` fault-injection site. An injected
// transient I/O failure is retried once after a short backoff (the shape a
// real flaky NFS mount or overloaded disk produces); a permanent injected
// failure, like a genuinely unreadable file, reports as such.
ReadResult ReadCandidate(const fs::path& path, const std::string& key) {
  TelemetrySpan span("file.load", key);
  for (int attempt = 0;; ++attempt) {
    try {
      MaybeFault("fs.read", key);
      ReadResult result = ReadFileContents(path);
      result.retries = attempt;
      if (!result.ok) {
        result.error = "unreadable";
      }
      return result;
    } catch (const FaultInjected& e) {
      if (e.transient_io() && attempt == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      ReadResult result;
      result.error = e.what();
      result.retries = attempt;
      return result;
    }
  }
}

}  // namespace

bool ReadOpenFile(int fd, std::string& out) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return false;
  }
  if (st.st_size > 0) {
    out.resize(static_cast<size_t>(st.st_size));
    const ssize_t n = ReadFull(fd, out.data(), out.size());
    if (n < 0) {
      return false;
    }
    out.resize(static_cast<size_t>(n));  // shorter only if the file shrank since fstat
    return true;
  }
  out.clear();
  char chunk[4096];
  for (;;) {
    const ssize_t n = ReadFull(fd, chunk, sizeof(chunk));
    if (n < 0) {
      return false;
    }
    out.append(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) {
      return true;
    }
  }
}

SourceTree LoadSourceTreeFromDisk(const std::string& root, const LoadOptions& options,
                                  std::vector<LoadFailure>* failures, LoadStats* stats) {
  TelemetrySpan stage_span("stage.load");
  SourceTree tree;
  std::error_code ec;
  const fs::path root_path(root);
  if (!fs::exists(root_path, ec)) {
    if (failures != nullptr) {
      failures->push_back({root, "does not exist", 0});
    }
    if (stats != nullptr) {
      ++stats->files_failed;
    }
    return tree;
  }

  // Set-based filters: one lookup per entry instead of one string compare
  // per configured name.
  const std::set<std::string, std::less<>> skip_dirs(options.skip_dirs.begin(),
                                                     options.skip_dirs.end());
  const std::set<std::string, std::less<>> extensions(options.extensions.begin(),
                                                      options.extensions.end());

  // Serial walk: collect candidate files (with their tree keys) in
  // directory-iteration order. The reads below fan out over the pool, but
  // insertion is by candidate index, so the tree and the error list come
  // out identical at every `jobs` value.
  struct Candidate {
    fs::path path;
    std::string key;
  };
  std::vector<Candidate> candidates;

  fs::recursive_directory_iterator it(root_path, fs::directory_options::skip_permission_denied,
                                      ec);
  const fs::recursive_directory_iterator end;
  while (it != end) {
    const fs::directory_entry& entry = *it;
    if (entry.is_directory(ec)) {
      if (skip_dirs.find(entry.path().filename().string()) != skip_dirs.end()) {
        it.disable_recursion_pending();
      }
      it.increment(ec);
      continue;
    }
    if (!entry.is_regular_file(ec)) {
      it.increment(ec);
      continue;
    }
    if (extensions.find(entry.path().extension().string()) == extensions.end()) {
      it.increment(ec);
      continue;
    }
    if (options.max_file_bytes > 0) {
      const auto size = entry.file_size(ec);
      if (!ec && size > options.max_file_bytes) {
        it.increment(ec);
        continue;
      }
    }
    // The iterator builds each entry path by appending to `root_path`, so the
    // tree key is the rest of it, taken lexically: no filesystem lookups
    // (fs::relative canonicalised both paths for every file), and a symlink
    // inside the tree keeps its tree path.
    std::string relative = entry.path().lexically_relative(root_path).generic_string();
    candidates.push_back(
        {entry.path(), relative.empty() ? entry.path().generic_string() : std::move(relative)});
    it.increment(ec);
  }

  ThreadPool pool(options.jobs);
  std::vector<ReadResult> contents = ParallelMap(pool, candidates.size(), [&candidates](size_t i) {
    return ReadCandidate(candidates[i].path, candidates[i].key);
  });

  LoadStats local;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (contents[i].retries > 0) {
      // Retried ≠ degraded: a retried-then-succeeded read is counted here
      // and nowhere else, a retried-then-failed one is counted here AND
      // carries `retries` in its LoadFailure.
      ++local.files_retried;
    }
    if (!contents[i].ok) {
      ++local.files_failed;
      if (failures != nullptr) {
        failures->push_back({candidates[i].key, contents[i].error, contents[i].retries});
      }
      continue;
    }
    ++local.files_loaded;
    tree.Add(std::move(candidates[i].key), std::move(contents[i].text));
  }
  if (Telemetry* t = CurrentTelemetry()) {
    t->metrics().Counter("load.files").Add(local.files_loaded);
    t->metrics().Counter("load.failures").Add(local.files_failed);
    t->metrics().Counter("load.retries").Add(local.files_retried);
  }
  if (stats != nullptr) {
    stats->files_loaded += local.files_loaded;
    stats->files_failed += local.files_failed;
    stats->files_retried += local.files_retried;
  }
  return tree;
}

}  // namespace refscan
