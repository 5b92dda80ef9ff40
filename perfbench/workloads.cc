#include "perfbench/workloads.h"

#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "perfbench/replay.h"
#include "src/cache/store.h"
#include "src/serve/client.h"
#include "src/support/fs.h"

namespace perfbench {

using namespace refscan;
namespace stdfs = std::filesystem;

namespace {

// Releases whose edits the input digest covers; a run never gets near it.
constexpr uint64_t kPlannedReleases = 5000;

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Fnv1a(uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
}

// One release's edits: `files` are indices into the editable-file list, and
// `bodies[i]` picks which function body of files[i] gets the new statement
// (reduced modulo the file's body count when applied).
struct Release {
  std::vector<size_t> files;
  std::vector<uint64_t> bodies;
  bool add_helper = false;  // also append a discoverable helper to files[0]
};

Release PlanRelease(uint64_t seed, uint64_t release, size_t editable, size_t per_release) {
  uint64_t state = seed ^ (release * 0xd1b54a32d192ed03ULL);
  Release r;
  while (r.files.size() < per_release && r.files.size() < editable) {
    const size_t pick = static_cast<size_t>(SplitMix64(state) % editable);
    if (std::find(r.files.begin(), r.files.end(), pick) == r.files.end()) {
      r.files.push_back(pick);
      r.bodies.push_back(SplitMix64(state));
    }
  }
  r.add_helper = release % kReleaseCycle == 0;
  return r;
}

// Offsets just past each kernel-style function-body opening: a `{` alone at
// the start of a line.
std::vector<size_t> BodyStarts(const std::string& text) {
  std::vector<size_t> starts;
  for (size_t pos = text.find("\n{"); pos != std::string::npos; pos = text.find("\n{", pos + 1)) {
    size_t after = pos + 2;
    if (after < text.size() && text[after] == '\r') {
      ++after;
    }
    if (after < text.size() && text[after] == '\n') {
      starts.push_back(after + 1);
    }
  }
  return starts;
}

void WriteFile(const std::string& path, std::string_view text) {
  stdfs::create_directories(stdfs::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace

const std::vector<std::string>& Workload::Names() {
  static const std::vector<std::string> names = {"cold-tree", "release-series", "ipa-families",
                                                 "resident-series"};
  return names;
}

std::unique_ptr<Workload> Workload::Create(const std::string& name, uint64_t seed,
                                           std::string dir) {
  const std::vector<std::string>& names = Names();
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    return nullptr;
  }
  const Kind kinds[] = {Kind::kColdTree, Kind::kReleaseSeries, Kind::kIpaFamilies,
                        Kind::kResidentSeries};
  return std::unique_ptr<Workload>(new Workload(kinds[it - names.begin()], seed, std::move(dir)));
}

Workload::Workload(Kind kind, uint64_t seed, std::string dir)
    : kind_(kind), seed_(seed), dir_(std::move(dir)) {
  corpus_options_.seed = seed;
  scan_options_.jobs = 1;
  switch (kind_) {
    case Kind::kColdTree:
      corpus_options_.kernelish_modules = 400;
      break;
    case Kind::kReleaseSeries:
      corpus_options_.kernelish_modules = 100;
      break;
    case Kind::kIpaFamilies:
      corpus_options_.wrapper_chain_depths = {2, 3};
      corpus_options_.new_family_modules = true;
      scan_options_.enabled_patterns = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
      scan_options_.dialects = {"glib", "uacpi"};
      scan_options_.interprocedural = true;
      break;
    case Kind::kResidentSeries:
      corpus_options_.kernelish_modules = 100;
      break;
  }
}

Workload::~Workload() {
  TearDown();
  std::error_code ec;
  stdfs::remove_all(dir_, ec);
}

bool Workload::series() const {
  return kind_ == Kind::kReleaseSeries || kind_ == Kind::kResidentSeries;
}

size_t Workload::expected_degraded() const {
  return static_cast<size_t>(corpus_options_.kernelish_modules + 1) / 2;
}

SourceTree Workload::LoadTree() const {
  LoadOptions options;
  options.jobs = 1;
  return LoadSourceTreeFromDisk(tree_dir(), options);
}

bool Workload::SetUp(std::string& error) {
  ++setups_;
  stdfs::create_directories(dir_);
  corpus_ = GenerateKernelCorpus(corpus_options_);
  if (kind_ == Kind::kIpaFamilies) {
    return true;  // scanned in memory
  }
  texts_.clear();
  editable_.clear();
  for (const auto& [path, file] : corpus_.tree.files()) {
    WriteFile(tree_dir() + "/" + path, file.text());
    if (series()) {
      if (!BodyStarts(std::string(file.text())).empty()) {
        editable_.push_back(texts_.size());
      }
      texts_.emplace_back(path, std::string(file.text()));
    }
  }
  if (kind_ == Kind::kReleaseSeries) {
    // A fresh cache per set-up: deleting the last one would leave file
    // system work pending that lands in the next, timed, set-up.
    scan_options_.cache_dir = dir_ + "/cache-" + std::to_string(setups_);
    CheckerEngine engine(KnowledgeBase::BuiltIn(), scan_options_);
    if (engine.Scan(LoadTree()).aborted) {
      error = "cache priming scan aborted";
      return false;
    }
  }
  if (kind_ == Kind::kResidentSeries) {
    ServeConfig config;
    config.socket_path = dir_ + "/serve.sock";
    config.sessions = 1;
    server_ = std::make_unique<ScanServer>(config);
    if (!server_->Start(&error)) {
      return false;
    }
    if (!RemoteScan(LoadTree(), scan_options_, config.socket_path).has_value()) {
      error = "server priming scan got no reply";
      return false;
    }
  }
  return true;
}

void Workload::TearDown() {
  if (server_ != nullptr) {
    server_->Drain();
    server_.reset();
  }
}

void Workload::PrepareOp(uint64_t op) {
  if (!series()) {
    return;
  }
  const size_t per_release = (texts_.size() + 99) / 100;  // 1% of files, at least one
  const Release r = PlanRelease(seed_, op, editable_.size(), per_release);
  for (size_t i = 0; i < r.files.size(); ++i) {
    auto& [path, text] = texts_[editable_[r.files[i]]];
    const std::vector<size_t> starts = BodyStarts(text);
    text.insert(starts[r.bodies[i] % starts.size()], "\tbarrier();\n");
    if (i == 0 && r.add_helper) {
      // Discovery classifies this as a new of_node_get wrapper: the KB
      // fingerprint moves and every cached report shard goes stale.
      text += "\nstruct device_node *perfbench_get_node_" + std::to_string(op) +
              "(struct device_node *np)\n{\n\treturn of_node_get(np);\n}\n";
    }
    WriteFile(tree_dir() + "/" + path, text);
  }
}

OpOutcome Workload::RunOp(Tracer* tracer) {
  OpOutcome out;
  if (kind_ == Kind::kIpaFamilies) {
    out.tree = &corpus_.tree;
  } else {
    {
      Span span(tracer, "fs.load");
      out.owned_tree = std::make_unique<SourceTree>(LoadTree());
    }
    out.tree = out.owned_tree.get();
    if (tracer != nullptr) {
      uint64_t bytes = 0;
      for (const auto& [path, file] : out.tree->files()) {
        bytes += file.text().size();
      }
      tracer->Count("fs.bytes_read", static_cast<double>(bytes));
    }
  }
  const SourceTree& tree = *out.tree;

  if (kind_ == Kind::kResidentSeries) {
    std::optional<ScanResult> result;
    {
      Span span(tracer, "serve.request");
      timespec c0{};
      timespec c1{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c0);
      result = RemoteScan(tree, scan_options_, dir_ + "/serve.sock");
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c1);
      if (tracer != nullptr) {
        tracer->Count("serve.client_cpu_ms",
                      static_cast<double>(c1.tv_sec - c0.tv_sec) * 1e3 +
                          static_cast<double>(c1.tv_nsec - c0.tv_nsec) / 1e6);
      }
    }
    if (!result.has_value()) {
      out.error = "RemoteScan got no reply";
      return out;
    }
    if (tracer != nullptr) {
      tracer->Count("cache.hits", static_cast<double>(result->stats.cache_hits));
      tracer->Count("cache.misses", static_cast<double>(result->stats.cache_misses));
      tracer->Count("cache.kb_snapshot_hits", static_cast<double>(result->stats.kb_snapshot_hits));
      tracer->Count("checkers.reports", static_cast<double>(result->reports.size()));
    }
    out.ok = !result->aborted && result->failures.empty();
    out.error = out.ok ? "" : "remote scan aborted or degraded";
    out.reports = std::move(result->reports);
    out.functions_degraded = result->stats.functions_degraded;
    return out;
  }

  if (tracer != nullptr) {
    std::shared_ptr<ObjectStore> store;
    if (!scan_options_.cache_dir.empty()) {
      store = std::make_shared<LocalStore>(scan_options_.cache_dir);
    }
    ReplayResult replay = ReplayScan(tree, scan_options_, store, *tracer);
    out.ok = true;
    out.reports = std::move(replay.reports);
    out.functions_degraded = replay.functions_degraded;
    return out;
  }

  CheckerEngine engine(KnowledgeBase::BuiltIn(), scan_options_);
  ScanResult result = engine.Scan(tree);
  out.ok = !result.aborted && result.failures.empty();
  out.error = out.ok ? "" : "scan aborted or degraded: " + result.abort_reason;
  out.reports = std::move(result.reports);
  out.functions_degraded = result.stats.functions_degraded;
  return out;
}

std::vector<BugReport> Workload::ReferenceScan(const SourceTree& tree) const {
  ScanOptions options = scan_options_;
  options.cache_dir.clear();
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  return engine.Scan(tree).reports;
}

uint64_t Workload::InputDigest() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [path, file] : corpus_.tree.files()) {
    Fnv1a(h, path);
    Fnv1a(h, std::string_view("\0", 1));
    Fnv1a(h, file.text());
    Fnv1a(h, std::string_view("\0", 1));
  }
  if (series()) {
    const size_t per_release = (texts_.size() + 99) / 100;
    for (uint64_t op = 1; op <= kPlannedReleases; ++op) {
      const Release r = PlanRelease(seed_, op, editable_.size(), per_release);
      for (size_t i = 0; i < r.files.size(); ++i) {
        Fnv1a(h, texts_[editable_[r.files[i]]].first);
        Fnv1a(h, std::to_string(r.bodies[i]) + (r.add_helper && i == 0 ? "+helper;" : ";"));
      }
    }
  }
  return h;
}

}  // namespace perfbench
