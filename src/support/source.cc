#include "src/support/source.h"

#include <algorithm>
#include <cstring>

#include "src/support/strings.h"

namespace refscan {

std::string SourceLocation::ToString() const {
  return StrFormat("%s:%u", file.c_str(), line);
}

SourceFile::SourceFile(std::string path, std::string text)
    : path_(std::move(path)), text_(std::move(text)) {
  IndexLines();
}

void SourceFile::IndexLines() {
  const std::string_view t = text();
  line_starts_.push_back(0);
  const char* const begin = t.data();
  const char* const end = begin + t.size();
  for (const char* p = begin; p < end;) {
    const void* newline = std::memchr(p, '\n', static_cast<size_t>(end - p));
    if (newline == nullptr) {
      break;
    }
    p = static_cast<const char*>(newline) + 1;
    if (p < end) {
      line_starts_.push_back(static_cast<uint32_t>(p - begin));
    }
  }
}

uint32_t SourceFile::LineAt(size_t offset) const {
  if (line_starts_.empty()) {
    return 1;
  }
  auto it = std::upper_bound(line_starts_.begin(), line_starts_.end(),
                             static_cast<uint32_t>(std::min(offset, text().size())));
  return static_cast<uint32_t>(it - line_starts_.begin());
}

uint32_t SourceFile::line_count() const {
  return static_cast<uint32_t>(line_starts_.size());
}

std::string_view SourceFile::Line(uint32_t line) const {
  if (line == 0 || line > line_starts_.size()) {
    return {};
  }
  const std::string_view t = text();
  const size_t start = line_starts_[line - 1];
  const size_t end = (line < line_starts_.size()) ? line_starts_[line] : t.size();
  std::string_view out(t.data() + start, end - start);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.remove_suffix(1);
  }
  return out;
}

void SourceTree::Add(std::string path, std::string text) {
  std::string key = path;
  SourceFile file(std::move(path), std::move(text));
  files_.insert_or_assign(std::move(key), std::move(file));
}

const SourceFile* SourceTree::Find(std::string_view path) const {
  auto it = files_.find(std::string(path));
  return it == files_.end() ? nullptr : &it->second;
}

uint64_t SourceTree::LinesUnder(std::string_view prefix) const {
  uint64_t total = 0;
  for (const auto& [path, file] : files_) {
    if (std::string_view(path).starts_with(prefix)) {
      total += file.line_count();
    }
  }
  return total;
}

PathParts SplitKernelPath(std::string_view path) {
  PathParts parts;
  const auto segments = Split(path, '/');
  if (!segments.empty()) {
    parts.subsystem = std::string(segments[0]);
  }
  if (segments.size() > 2) {
    parts.module = std::string(segments[1]);
  }
  return parts;
}

}  // namespace refscan
