#include "src/support/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <memory>

#include "src/support/faultinject.h"
#include "src/support/strings.h"
#include "src/support/telemetry.h"
#include "src/support/threadpool.h"

namespace refscan {

namespace fs = std::filesystem;

namespace {

// Files larger than this are listed as a LoadFailure, never read: the cap
// guards the process against input from outside it.
constexpr uintmax_t kMaxFileBytes = 4 * 1024 * 1024;

bool IsSkippedDir(const std::string& name) {
  return name == ".git" || name == "build" || name == "Documentation";
}

bool IsSourceExtension(const std::string& ext) { return ext == ".c" || ext == ".h"; }

struct ReadResult {
  std::string text;
  std::string error;
  bool ok = false;
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

// ReadFileContents behind the `fs.read` fault-injection site: an injected
// fault fails the read like a genuinely unreadable file, with its own
// message.
ReadResult ReadCandidate(const fs::path& path, const std::string& key) {
  TelemetrySpan span("file.load", key);
  try {
    MaybeFault("fs.read", key);
  } catch (const FaultInjected& e) {
    return ReadResult{{}, e.what()};
  }
  ReadResult result = ReadFileContents(path);
  if (!result.ok) {
    result.error = "unreadable";
  }
  return result;
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
                                  std::vector<LoadFailure>* failures) {
  TelemetrySpan stage_span("stage.load");
  SourceTree tree;
  std::error_code ec;
  const fs::path root_path(root);
  if (!fs::exists(root_path, ec)) {
    if (failures != nullptr) {
      failures->push_back({root, "does not exist"});
    }
    return tree;
  }

  // Serial walk: collect candidate files (with their tree keys) in
  // directory-iteration order. The reads below fan out over the pool, but
  // insertion is by candidate index, so the tree and the error list come
  // out identical at every `jobs` value.
  struct Candidate {
    fs::path path;
    std::string key;
    uintmax_t oversized = 0;  // the size of a file over the cap, else 0
  };
  std::vector<Candidate> candidates;

  fs::recursive_directory_iterator it(root_path, fs::directory_options::skip_permission_denied,
                                      ec);
  const fs::recursive_directory_iterator end;
  while (it != end) {
    const fs::directory_entry& entry = *it;
    if (entry.is_directory(ec)) {
      if (IsSkippedDir(entry.path().filename().string())) {
        it.disable_recursion_pending();
      }
      it.increment(ec);
      continue;
    }
    if (!entry.is_regular_file(ec)) {
      it.increment(ec);
      continue;
    }
    if (!IsSourceExtension(entry.path().extension().string())) {
      it.increment(ec);
      continue;
    }
    const uintmax_t size = entry.file_size(ec);
    const uintmax_t oversized = !ec && size > kMaxFileBytes ? size : 0;
    // The iterator builds each entry path by appending to `root_path`, so the
    // tree key is the rest of it, taken lexically: no filesystem lookups
    // (fs::relative canonicalised both paths for every file), and a symlink
    // inside the tree keeps its tree path.
    std::string relative = entry.path().lexically_relative(root_path).generic_string();
    candidates.push_back({entry.path(),
                          relative.empty() ? entry.path().generic_string() : std::move(relative),
                          oversized});
    it.increment(ec);
  }

  ThreadPool pool(options.jobs);
  std::vector<ReadResult> contents =
      ParallelMap(pool, candidates.size(), [&candidates](size_t i) {
        if (candidates[i].oversized > 0) {
          return ReadResult{{}, StrFormat("size %ju exceeds the loader's %ju-byte cap",
                                          candidates[i].oversized, kMaxFileBytes)};
        }
        return ReadCandidate(candidates[i].path, candidates[i].key);
      });

  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!contents[i].ok) {
      if (failures != nullptr) {
        failures->push_back(
            {candidates[i].key, contents[i].error, candidates[i].oversized > 0});
      }
      continue;
    }
    tree.Add(std::move(candidates[i].key), std::move(contents[i].text));
  }
  if (Telemetry* t = CurrentTelemetry()) {
    t->metrics().Counter("load.files").Add(tree.size());
    t->metrics().Counter("load.failures").Add(candidates.size() - tree.size());
  }
  return tree;
}

}  // namespace refscan
