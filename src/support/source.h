// Source buffers and locations.
//
// refscan analyses in-memory source trees: a SourceFile owns the text of one
// C file; SourceTree is the whole (synthetic or on-disk) kernel tree. All
// later stages (lexer, AST, CFG, CPG, checkers) reference locations by
// file path + 1-based line, matching how the paper's CPG uses embedded line
// numbers to represent execution order.

#ifndef REFSCAN_SUPPORT_SOURCE_H_
#define REFSCAN_SUPPORT_SOURCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace refscan {

struct SourceLocation {
  std::string file;
  uint32_t line = 0;  // 1-based; 0 means unknown.

  bool operator==(const SourceLocation&) const = default;
  std::string ToString() const;
};

// One source file. Owns its text; provides offset→line mapping.
class SourceFile {
 public:
  SourceFile() = default;
  SourceFile(std::string path, std::string text);

  const std::string& path() const { return path_; }
  std::string_view text() const { return text_; }

  // 1-based line number for a byte offset. Offsets past the end map to the
  // last line.
  uint32_t LineAt(size_t offset) const;

  // Number of lines (a trailing newline does not add an empty line).
  uint32_t line_count() const;

  // Text of a 1-based line, without the newline. Out-of-range returns "".
  std::string_view Line(uint32_t line) const;

 private:
  void IndexLines();

  std::string path_;
  std::string text_;
  std::vector<uint32_t> line_starts_;  // byte offset of each line start
};

// An in-memory tree of source files keyed by path ("drivers/usb/serial.c").
class SourceTree {
 public:
  // Adds a file; replaces any existing file at the same path.
  void Add(std::string path, std::string text);

  const SourceFile* Find(std::string_view path) const;

  // Stable path-ordered iteration.
  const std::map<std::string, SourceFile>& files() const { return files_; }

  size_t size() const { return files_.size(); }

  // Total number of source lines in files whose path starts with `prefix`
  // (used for bug-density-per-KLOC, Figure 2 right).
  uint64_t LinesUnder(std::string_view prefix) const;

 private:
  std::map<std::string, SourceFile> files_;
};

// Splits "drivers/usb/serial.c" into its top-level subsystem ("drivers") and
// second-level module ("usb"); missing levels come back empty.
struct PathParts {
  std::string subsystem;
  std::string module;
};
PathParts SplitKernelPath(std::string_view path);

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_SOURCE_H_
