// Sharded multi-process scanning (DESIGN.md §5.13, ROADMAP item 4).
//
// `refscan scan --workers N` splits the tree's file list into N
// content-balanced shards and runs the parallel pipeline stages in N
// `refscan worker` subprocesses, keeping the order-sensitive parts — KB
// discovery, the circuit breaker, the file-ordered merge — in the
// coordinator. The protocol over a Unix-domain socket (support/ipc.h), five
// frame types in lockstep per worker:
//
//   worker → coordinator   kHello    worker id
//   coordinator → worker   kJob      ScanOptions + the shard's (path, text)
//   worker → coordinator   kFacts    per-file DiscoveryFacts / failures /
//                                    stage-1 parsed bits
//   coordinator → worker   kKb       the post-discovery KB snapshot
//   worker → coordinator   kResults  per-file report shards + cache flags
//
// The coordinator is the scan spine (scan_stages.h) with only its per-file
// fan-out replaced: kJob → kFacts is stage 1, kKb → kResults is stage 3.
// The kFacts/kKb round trip is the two-phase KB exchange: workers parse
// their shards with the in-process per-file bodies, the spine replays
// discovery over every healthy file in global tree order and broadcasts
// the resulting KB, which the workers use for stage 3. Output is
// byte-identical to `--workers 0` because every divergence point is
// pinned: same stage bodies, same spine, same KB bytes (SerializeKb
// round-trips everything the KB fingerprint observes).
//
// Failure semantics: a worker that dies mid-protocol (crash, kill, protocol
// error) costs its shard, not the scan. The coordinator discards all worker
// results, rescans the surviving files in-process — making "the degraded
// scan's reports match scanning the surviving subset" true by construction
// — and quarantines the dead shard's files into the §5.9 degraded section.

#ifndef REFSCAN_CHECKERS_SHARDED_H_
#define REFSCAN_CHECKERS_SHARDED_H_

#include <string>
#include <vector>

#include "src/checkers/engine.h"
#include "src/support/source.h"

namespace refscan {

// Deterministic content-balanced sharding: greedy longest-processing-time
// assignment of files (largest first, path as tie-break) to the currently
// lightest shard, measured in content bytes. Returns `shards` index lists
// into `files`, each sorted ascending so every worker sees its files in
// global tree order. Pure function of (sizes, paths, shards) — the same
// tree always shards the same way.
std::vector<std::vector<size_t>> ShardFiles(const std::vector<const SourceFile*>& files,
                                            size_t shards);

struct ShardedScanConfig {
  size_t workers = 0;
  // Binary to exec for workers (argv: worker --socket PATH --id N).
  // The CLI passes /proc/self/exe; tests pass their built refscan path.
  // The coordination socket is /tmp/refscan-shard-PID.sock.
  std::string worker_cmd;
};

// Coordinator entry point: scans `tree` across config.workers subprocesses.
// Drop-in replacement for CheckerEngine(...).Scan(tree) — reports, stats,
// failures and abort behaviour match it byte for byte (asserted by
// tests/sharded_test.cc). Runs in-process instead when there is nothing to
// shard (empty tree, no workers) and with options.interprocedural, whose
// stage 2.5 walks every unit of the tree at once.
ScanResult ShardedScan(const SourceTree& tree, const ScanOptions& options,
                       const ShardedScanConfig& config);

// Worker entry point (`refscan worker --socket PATH --id N`): connects,
// runs stages 1 and 3 over the shard it is sent, exits 0 on a completed or
// cleanly-abandoned (coordinator closed) exchange. Throws propagate to the
// CLI's fatal handler — an injected worker.facts/worker.results fault kills
// the worker exactly like a real crash.
int RunShardWorker(const std::string& socket_path, int worker_id);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_SHARDED_H_
