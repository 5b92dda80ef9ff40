// Filesystem loading for on-disk source trees.
//
// The synthetic corpus lives in memory; this adapter lets the same engine
// scan a real checkout (e.g. an actual kernel tree) from disk. The walk is
// serial (directory iteration order feeds the error list deterministically);
// file contents are read and ingested in parallel over a thread pool, with
// insertion in walk order, so the resulting SourceTree and error list are
// identical at every `jobs` value.

#ifndef REFSCAN_SUPPORT_FS_H_
#define REFSCAN_SUPPORT_FS_H_

#include <string>
#include <vector>

#include "src/support/source.h"

namespace refscan {

struct LoadOptions {
  // Reader threads (0 = one per hardware thread, 1 = fully serial). The
  // loaded tree is identical at every value.
  size_t jobs = 0;
};

// One file the loader could not read. `path` is the tree-relative key the
// file would have had. The CLI surfaces these as quarantined entries in the
// scan report.
struct LoadFailure {
  std::string path;
  std::string what;
  bool over_cap = false;  // larger than the 4 MiB cap, never read
};

// Recursively loads the `.c` and `.h` files under `root` into a SourceTree
// keyed by root-relative paths, skipping `.git`, `build` and
// `Documentation` directories at any depth. A file over 4 MiB (4,194,304
// bytes; generated headers and the like) is never read. Each other file is
// read once: a read that fails (an I/O error, or an injected `fs.read`
// fault) skips the file. The failure list (if non-null) collects unreadable
// and oversized files in walk order — identical at every `jobs` value.
// Reads pass through the `fs.read` fault-injection site (faultinject.h) and
// the `stage.load` / `file.load` telemetry spans (telemetry.h).
SourceTree LoadSourceTreeFromDisk(const std::string& root, const LoadOptions& options = {},
                                  std::vector<LoadFailure>* failures = nullptr);

// Reads the whole of the open file `fd` into `out`: one fstat for the size,
// then read(2) straight into a string of exactly that size, with no stream
// buffer and no slack capacity. Files whose size fstat cannot tell
// (procfs-style, reported as 0) are read in chunks until EOF. False on a
// read error, such as `fd` naming a directory.
bool ReadOpenFile(int fd, std::string& out);

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_FS_H_
