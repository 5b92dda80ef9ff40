// The benchmark's four workloads: how each one's inputs are generated from
// the seed, what set-up leaves behind, and what one op is.
//
//   cold-tree        base corpus + 400 kernelish modules on disk; one op =
//                    LoadSourceTreeFromDisk + CheckerEngine::Scan, no cache
//   release-series   base + 100 kernelish modules on disk with an on-disk
//                    cache; one op = one release (1% of files edited before
//                    the op, a discoverable helper added every 20th release)
//   ipa-families     base + wrapper chains + P10-P12 modules in memory, all
//                    twelve patterns, both dialects, interprocedural
//   resident-series  release-series' tree and releases, scanned through
//                    RemoteScan against an in-process ScanServer
//
// Every op runs with ScanOptions::jobs = 1, one client, closed loop.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/spans.h"
#include "src/checkers/engine.h"
#include "src/corpus/generator.h"
#include "src/serve/serve.h"

namespace perfbench {

// Releases per cycle in the series workloads: every 20th release adds a
// helper that changes the KB fingerprint and so invalidates every cached
// report shard.
constexpr uint64_t kReleaseCycle = 20;

// What one op produced.
struct OpOutcome {
  bool ok = false;  // the scan completed (not aborted; a remote reply arrived)
  std::string error;
  std::vector<refscan::BugReport> reports;
  size_t functions_degraded = 0;
  // The tree the op scanned (owned when the op loaded it from disk).
  std::unique_ptr<refscan::SourceTree> owned_tree;
  const refscan::SourceTree* tree = nullptr;
};

class Workload {
 public:
  // Null for an unknown name. `dir` is the workload's private scratch
  // directory (tree, caches, socket), removed by the destructor.
  static std::unique_ptr<Workload> Create(const std::string& name, uint64_t seed,
                                          std::string dir);
  static const std::vector<std::string>& Names();

  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Generates the inputs, writes them out, and primes the cache or the
  // server. Returns false (with `error`) when set-up cannot complete. Call
  // TearDown first to set up again. A repeated set-up rewrites the tree in
  // place rather than deleting it: deleting and recreating ~550 files makes
  // set-up time mostly file-system noise.
  bool SetUp(std::string& error);
  // Stops the resident server, if any.
  void TearDown();

  // True for the workloads whose ops are releases of one evolving tree.
  bool series() const;
  // Applies release `op`'s edits to the tree on disk (untimed; no-op for
  // the other workloads).
  void PrepareOp(uint64_t op);
  // The timed op. With a tracer, the op is replayed layer by layer
  // (replay.h) or, for resident-series, its client side is spanned.
  OpOutcome RunOp(Tracer* tracer);
  // A cold, cache-free, in-process CheckerEngine::Scan of `tree` under the
  // workload's options: the reference the cached, resident and replayed
  // results must equal.
  std::vector<refscan::BugReport> ReferenceScan(const refscan::SourceTree& tree) const;

  // Digest of the generated inputs: the initial tree's bytes plus the
  // planned edit sequence, so equal digests mean equal scanned bytes.
  uint64_t InputDigest() const;
  size_t files() const { return corpus_.tree.size(); }
  const refscan::Corpus& corpus() const { return corpus_; }
  // Function bodies the generator made unparseable: one per even-indexed
  // kernelish module.
  size_t expected_degraded() const;

 private:
  enum class Kind { kColdTree, kReleaseSeries, kIpaFamilies, kResidentSeries };
  Workload(Kind kind, uint64_t seed, std::string dir);

  refscan::SourceTree LoadTree() const;
  std::string tree_dir() const { return dir_ + "/tree"; }

  Kind kind_;
  uint64_t seed_;
  std::string dir_;
  refscan::CorpusOptions corpus_options_;
  refscan::ScanOptions scan_options_;
  refscan::Corpus corpus_;
  // Series state: current text of every file, and the files that have a
  // function body an edit can go into.
  std::vector<std::pair<std::string, std::string>> texts_;
  std::vector<size_t> editable_;
  std::unique_ptr<refscan::ScanServer> server_;
  int setups_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
