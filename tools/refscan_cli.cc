// refscan — command-line front end.
//
//   refscan scan <dir> [flags]                    scan a C tree on disk
//   refscan stats <dir> [flags]                   scan and print only the stats table
//   refscan demo [flags]                          scan the built-in synthetic kernel corpus
//   refscan match <dir> "<template>" [flags]      run a custom semantic template
//   refscan deviations <dir> [flags]              find deviant refcounting APIs
//   refscan summaries <dir> [flags]               interprocedural ref-delta summaries
//   refscan dump <file.c> [tokens|ast|cfg|cpg]    inspect front-end stages
//
// The six tree subcommands share one flow (RunTreeCommand): arm --faults
// and telemetry, load or generate the tree, run the scan spine, then write
// --trace-out and --metrics-out. The two daemons (`cached`, `serve`) share
// another (RunDaemon). Which flags every subcommand honours is one table,
// kFlagTable; a flag outside its subcommand's row exits 64.
//
// Exit codes are disjoint (ScanExitCode, DESIGN.md §5.9): 0 = clean scan,
// 10 = completed healthy with >= 1 report, 2 = completed degraded (some
// files quarantined — see the `## Degraded files` section / `degraded`
// JSON field; takes precedence over reports), 1 = hard failure (aborted
// scan, no sources, internal error), 64 = usage error (bad flags).
// `refscan stats` maps 10 back to 0 — reports are not what it asks about.
//
// Observability (src/support/telemetry.h): `--trace-out FILE` writes a
// Chrome trace-event JSON of the run (stage + per-file spans; load it in
// chrome://tracing or https://ui.perfetto.dev); `--metrics-out FILE`
// writes the run's counters in Prometheus text exposition format.

#include <csignal>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/cache/store.h"
#include "src/checkers/deviations.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/checkers/sharded.h"
#include "src/ipa/summary.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/serve.h"
#include "src/serve/watch.h"
#include "src/checkers/fixes.h"
#include "src/checkers/template_matcher.h"
#include "src/checkers/templates.h"
#include "src/ast/parser.h"
#include "src/corpus/generator.h"
#include "src/cpg/dump.h"
#include "src/support/faultinject.h"
#include "src/support/fs.h"
#include "src/support/strings.h"
#include "src/support/telemetry.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  refscan scan <dir> [--fix] [--json] [--stats] [--patterns LIST] [--workers N]\n"
               "                    [--remote SOCKET] [--cache-dir DIR] [--cache-server PATH]\n"
               "                    [--no-cache] [--streaming] [TREE FLAGS]\n"
               "  refscan stats <dir> [scan's flags but --fix]   scan, print only the stats table\n"
               "  refscan demo [--emit <dir>] [--kernelish N] [scan's flags]\n"
               "  refscan match <dir> \"<template>\" [TREE FLAGS]   e.g. \"F_start -> "
               "S_P(p0) -> S_D(p0) -> F_end\"\n"
               "  refscan deviations <dir> [TREE FLAGS]\n"
               "  refscan summaries <dir> [--json] [TREE FLAGS]\n"
               "  refscan dump <file.c> [tokens|ast|cfg|cpg]\n"
               "  refscan cached <dir> [--socket PATH]      serve <dir> as a shared\n"
               "                                            content-addressed cache\n"
               "  refscan serve <socket> [--watch TREE [--poll-ms N] [--jobs N]] [--sessions N]\n"
               "                [--max-pending N] [--request-timeout-ms N] [--drain-timeout-ms N]\n"
               "                                            resident scan service: keeps the\n"
               "                                            artifact store warm and answers\n"
               "                                            scan/stats/summaries/health\n"
               "                                            requests; SIGTERM drains\n"
               "  refscan health <socket> [--stats]         ping a serve daemon (--stats\n"
               "                                            prints its counters JSON)\n"
               "  refscan cache gc <dir> --max-bytes N      evict LRU cache objects over N\n"
               "  refscan worker --socket PATH --id N       (internal) shard worker process\n"
               "\n"
               "  TREE FLAGS (any tree subcommand): --dialect --no-discovery --ipa --jobs --faults\n"
               "  --file-timeout-ms --max-failure-ratio --trace-out --metrics-out; others exit 64\n"
               "\n"
               "  --patterns LIST       comma-separated anti-pattern ids in 1..12, e.g. 1,4,10\n"
               "                        (P10-P12 are opt-in; the default is 1..9)\n"
               "  --dialect NAME        merge a userspace refcount dialect catalogue into the\n"
               "                        KB before scanning (repeatable); known: glib, uacpi\n"
               "  --interprocedural     fold bottom-up call-graph summaries into the KB\n"
               "                        before checking (alias: --ipa)\n"
               "  --jobs/-j N   scan threads (0 = all hardware threads, the default);\n"
               "                output is identical at every thread count\n"
               "  --cache-dir DIR   persistent incremental scan cache: rescans replay\n"
               "                    cached parses and reports for unchanged files;\n"
               "                    output is byte-identical to an uncached scan\n"
               "  --no-cache        ignore any --cache-dir / --cache-server (cold scan)\n"
               "  --cache-server PATH   Unix socket of a `refscan cached` server; shares one\n"
               "                        warm artifact store across processes (takes\n"
               "                        precedence over --cache-dir)\n"
               "  --workers N       shard the scan across N worker subprocesses; output is\n"
               "                    byte-identical to --workers 0 at any N (0 = in-process,\n"
               "                    the default); exits 64 with --interprocedural\n"
               "  --streaming       bounded-memory unit lifecycle for multi-MLOC trees: each\n"
               "                    file's AST is dropped after stage 1 and re-parsed just in\n"
               "                    time in stage 3, so at most --jobs ASTs coexist; output is\n"
               "                    byte-identical; exits 64 with --interprocedural\n"
               "  --kernelish N     (demo) append N generated kernel-realism modules per\n"
               "                    subsystem: attribute/asm/stmt-expr/CRLF/splice-heavy C\n"
               "                    plus a deliberately unparseable function per module\n"
               "  --remote SOCKET   run the scan on a `refscan serve` daemon (warm resident\n"
               "                    store); output is byte-identical to a local scan, and an\n"
               "                    unreachable server falls back to scanning locally;\n"
               "                    --workers, --cache-dir and --cache-server exit 64 with it\n"
               "  --stats           print fault-isolation and cache counters (text and JSON)\n"
               "  --faults SPEC     arm the deterministic fault-injection registry for this\n"
               "                    run, e.g. 'parser.parse:file=*.broken.c' — see\n"
               "                    src/support/faultinject.h (env: REFSCAN_FAULTS)\n"
               "  --file-timeout-ms N   per-file wall-clock budget; overruns quarantine the\n"
               "                        file instead of stalling the scan (0 = off)\n"
               "  --max-failure-ratio R  abort when more than this fraction of files fail\n"
               "                         (0 = complete degraded, the default)\n"
               "  --trace-out FILE      write a Chrome trace-event JSON of the run (open in\n"
               "                        chrome://tracing or ui.perfetto.dev)\n"
               "  --metrics-out FILE    write the run's counters in Prometheus text format\n"
               "\n"
               "exit codes: 0 clean, 10 reports found, 2 degraded, 1 hard failure, 64 usage\n");
  return refscan::kExitUsage;
}

// The subcommands that take flags, as bits of the flag table's rows.
enum Command : unsigned {
  kScan = 1u << 0,
  kStats = 1u << 1,
  kDemo = 1u << 2,
  kMatch = 1u << 3,
  kDeviations = 1u << 4,
  kSummaries = 1u << 5,
  kServe = 1u << 6,
  kCached = 1u << 7,
  kHealth = 1u << 8,
  kCacheGc = 1u << 9,
  kWorker = 1u << 10,
};
constexpr unsigned kScanLike = kScan | kStats | kDemo;  // run the checkers over the tree
constexpr unsigned kAnyTree = kScanLike | kMatch | kDeviations | kSummaries;

// Shared flag state across the subcommands.
struct CliFlags {
  bool print_fixes = false;
  bool discovery = true;
  bool json = false;
  bool interprocedural = false;
  std::set<int> patterns = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<std::string> dialects;
  size_t jobs = 0;  // 0 = hardware concurrency
  std::string emit_dir;
  std::string cache_dir;
  std::string cache_server;
  size_t workers = 0;   // 0 = in-process scan
  std::string remote;   // serve daemon socket; empty = scan locally
  bool streaming = false;
  size_t kernelish = 0;  // demo: kernel-realism modules per subsystem
  bool no_cache = false;
  bool stats = false;
  std::string fault_spec;
  uint32_t file_timeout_ms = 0;
  double max_failure_ratio = 0.0;
  std::string trace_out;
  std::string metrics_out;
  bool stats_only = false;  // `refscan stats`: suppress the report listing

  // The daemon subcommands.
  std::string socket;     // cached, worker
  std::string watch_dir;  // serve --watch
  size_t sessions = refscan::ServeConfig{}.sessions;
  size_t max_pending = refscan::ServeConfig{}.max_pending;
  uint32_t request_timeout_ms = refscan::ServeConfig{}.request_timeout_ms;
  uint32_t drain_timeout_ms = refscan::ServeConfig{}.drain_timeout_ms;
  uint32_t poll_ms = refscan::WatchConfig{}.poll_ms;
  size_t worker_id = 0;
  uint64_t max_bytes = 0;

  // Canonical names of the flags on the command line.
  std::set<std::string_view> given;
};

// Flag-table actions: a switch sets its member to `Value`, a text flag
// stores its argument, a count flag parses an unsigned decimal.
template <auto Member, bool Value = true>
bool Switch(CliFlags& flags, const char* /*value*/) {
  flags.*Member = Value;
  return true;
}

template <auto Member>
bool Text(CliFlags& flags, const char* value) {
  flags.*Member = value;
  return true;
}

template <auto Member>
bool Count(CliFlags& flags, const char* text) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0') {
    std::fprintf(stderr, "bad number: %s\n", text);
    return false;
  }
  flags.*Member = static_cast<std::remove_reference_t<decltype(flags.*Member)>>(value);
  return true;
}

bool ParseDialect(CliFlags& flags, const char* name) {
  const auto& known = refscan::KnownDialects();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    std::fprintf(stderr, "unknown dialect '%s' (known:", name);
    for (const std::string& k : known) {
      std::fprintf(stderr, " %s", k.c_str());
    }
    std::fprintf(stderr, ")\n");
    return false;
  }
  flags.dialects.push_back(name);
  return true;
}

bool ParsePatterns(CliFlags& flags, const char* list) {
  if (!refscan::ParsePatternList(list, flags.patterns)) {
    std::fprintf(stderr, "bad pattern list '%s': expected comma-separated ids in 1..12\n", list);
    return false;
  }
  return true;
}

bool ParseFailureRatio(CliFlags& flags, const char* text) {
  char* end = nullptr;
  flags.max_failure_ratio = std::strtod(text, &end);
  if (end == nullptr || *end != '\0' || flags.max_failure_ratio < 0.0 ||
      flags.max_failure_ratio > 1.0) {
    std::fprintf(stderr, "bad failure ratio: %s\n", text);
    return false;
  }
  return true;
}

// Every flag, with the subcommands that honour it (README.md, "Flags per
// subcommand"). A flag given to a subcommand outside its row is a usage
// error, never silently ignored. match, deviations and summaries walk every
// unit of the spine's front half in memory, so the cache, the shard
// workers, the serve daemon and streaming are not theirs.
struct FlagRule {
  const char* name;   // canonical spelling: -j is --jobs, --interprocedural is --ipa
  const char* value;  // what the argument is, for messages; nullptr for a switch
  unsigned commands;
  bool (*apply)(CliFlags& flags, const char* value);
};
constexpr FlagRule kFlagTable[] = {
    {"--dialect", "a name (known: glib, uacpi)", kAnyTree, ParseDialect},
    {"--no-discovery", nullptr, kAnyTree, Switch<&CliFlags::discovery, false>},
    {"--ipa", nullptr, kAnyTree, Switch<&CliFlags::interprocedural>},
    {"--jobs", "a number", kAnyTree | kServe, Count<&CliFlags::jobs>},
    {"--faults", "a spec (see src/support/faultinject.h)", kAnyTree, Text<&CliFlags::fault_spec>},
    {"--file-timeout-ms", "a number", kAnyTree, Count<&CliFlags::file_timeout_ms>},
    {"--max-failure-ratio", "a number in (0, 1]", kAnyTree, ParseFailureRatio},
    {"--trace-out", "a file path", kAnyTree, Text<&CliFlags::trace_out>},
    {"--metrics-out", "a file path", kAnyTree, Text<&CliFlags::metrics_out>},
    {"--json", nullptr, kScanLike | kSummaries, Switch<&CliFlags::json>},
    {"--stats", nullptr, kScanLike | kHealth, Switch<&CliFlags::stats>},
    {"--patterns", "a comma-separated list (e.g. 1,4,8)", kScanLike, ParsePatterns},
    {"--cache-dir", "a directory", kScanLike, Text<&CliFlags::cache_dir>},
    {"--cache-server", "a socket path", kScanLike, Text<&CliFlags::cache_server>},
    {"--no-cache", nullptr, kScanLike, Switch<&CliFlags::no_cache>},
    {"--workers", "a number", kScanLike, Count<&CliFlags::workers>},
    {"--remote", "a socket path", kScanLike, Text<&CliFlags::remote>},
    {"--streaming", nullptr, kScanLike, Switch<&CliFlags::streaming>},
    {"--fix", nullptr, kScan | kDemo, Switch<&CliFlags::print_fixes>},
    {"--emit", "a directory", kDemo, Text<&CliFlags::emit_dir>},
    {"--kernelish", "a number", kDemo, Count<&CliFlags::kernelish>},
    {"--socket", "a socket path", kCached | kWorker, Text<&CliFlags::socket>},
    {"--id", "a number", kWorker, Count<&CliFlags::worker_id>},
    {"--watch", "a directory", kServe, Text<&CliFlags::watch_dir>},
    {"--sessions", "a number", kServe, Count<&CliFlags::sessions>},
    {"--max-pending", "a number", kServe, Count<&CliFlags::max_pending>},
    {"--request-timeout-ms", "a number", kServe, Count<&CliFlags::request_timeout_ms>},
    {"--drain-timeout-ms", "a number", kServe, Count<&CliFlags::drain_timeout_ms>},
    {"--poll-ms", "a number", kServe, Count<&CliFlags::poll_ms>},
    {"--max-bytes", "a number", kCacheGc, Count<&CliFlags::max_bytes>},
};

// Parses flags from argv[first..) for `command`, whose positional
// arguments are argv[2..first); returns false on a missing positional, an
// unknown flag, a flag outside the subcommand's row of kFlagTable, or a
// missing/garbled flag argument.
bool ParseFlags(int argc, char** argv, int first, unsigned command, CliFlags& flags) {
  if (argc < first) {
    return false;
  }
  for (int i = first; i < argc; ++i) {
    std::string_view name = argv[i];
    name = name == "-j" ? "--jobs" : name == "--interprocedural" ? "--ipa" : name;
    const FlagRule* rule = std::find_if(std::begin(kFlagTable), std::end(kFlagTable),
                                        [&](const FlagRule& r) { return name == r.name; });
    if (rule == std::end(kFlagTable)) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
    if ((rule->commands & command) == 0) {
      std::fprintf(stderr, "%s does not apply to %s (README.md, \"Flags per subcommand\")\n",
                   argv[i], argv[1]);
      return false;
    }
    const char* value = nullptr;
    if (rule->value != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs %s\n", argv[i], rule->value);
        return false;
      }
      value = argv[++i];
    }
    if (!rule->apply(flags, value)) {
      return false;
    }
    flags.given.insert(rule->name);
  }
  return true;
}

// Folds the tree loader's structured failures into the scan's quarantine
// list (stage "load") and keeps the whole list deterministically ordered:
// by path, with whole-tree entries ("<tree>") last.
void AddLoadFailures(refscan::ScanResult& result,
                     const std::vector<refscan::LoadFailure>& load_failures,
                     const refscan::LoadStats& load_stats) {
  using namespace refscan;
  std::vector<FileFailure> all;
  all.reserve(load_failures.size() + result.failures.size());
  for (const LoadFailure& lf : load_failures) {
    all.push_back(FileFailure{lf.path, FailureStage::kLoad,
                              lf.over_cap ? FailureKind::kResourceLimit : FailureKind::kIo,
                              lf.what, lf.retries});
  }
  for (FileFailure& f : result.failures) {
    all.push_back(std::move(f));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const FileFailure& a, const FileFailure& b) {
                     const bool a_tree = a.path == "<tree>";
                     const bool b_tree = b.path == "<tree>";
                     if (a_tree != b_tree) {
                       return b_tree;  // whole-tree entries sort last
                     }
                     return a.path < b.path;
                   });
  result.failures = std::move(all);
  result.stats.files_quarantined += load_failures.size();
  // Loader retry accounting comes from LoadStats, not from counting retries
  // in the failure list: a retried-then-SUCCEEDED read produces no
  // LoadFailure. Same semantics as the engine's files_retried — retried !=
  // degraded, only quarantined files appear in the degraded list.
  result.stats.files_retried += load_stats.files_retried;
}

refscan::ScanOptions ScanOptionsFor(const CliFlags& flags) {
  refscan::ScanOptions options;
  options.discover_from_source = flags.discovery;
  options.jobs = flags.jobs;
  options.interprocedural = flags.interprocedural;
  options.enabled_patterns = flags.patterns;
  options.dialects = flags.dialects;
  options.file_timeout_ms = flags.file_timeout_ms;
  options.max_failure_ratio = flags.max_failure_ratio;
  options.streaming = flags.streaming;
  if (!flags.no_cache) {
    options.cache_dir = flags.cache_dir;
    options.cache_server = flags.cache_server;
  }
  return options;
}

// The quarantine sections every tree subcommand ends with.
void PrintDegraded(std::FILE* out, const refscan::ScanResult& result) {
  using namespace refscan;
  if (!result.failures.empty()) {
    std::fprintf(out, "\n## Degraded files\n\n");
    for (const FileFailure& f : result.failures) {
      std::fprintf(out, "%s: %s failure (%s): %s", f.path.c_str(),
                   std::string(FailureStageName(f.stage)).c_str(),
                   std::string(FailureKindName(f.kind)).c_str(), f.what.c_str());
      if (f.retries > 0) {
        std::fprintf(out, " [after %d retry]", f.retries);
      }
      std::fprintf(out, "\n");
    }
    std::fprintf(out,
                 "\n%zu file(s) quarantined; the reports above cover the healthy remainder.\n",
                 result.failures.size());
  }
  if (!result.degraded_functions.empty()) {
    std::fprintf(out, "\n## Degraded functions\n\n");
    for (const DegradedFunctionReport& d : result.degraded_functions) {
      std::fprintf(out, "%s:%u: %s(): %s\n", d.file.c_str(), d.line, d.function.c_str(),
                   d.what.c_str());
    }
    std::fprintf(out,
                 "\n%zu function(s) quarantined; sibling functions in the same files were "
                 "scanned normally.\n",
                 result.degraded_functions.size());
  }
}

int RunScan(const refscan::SourceTree& tree, const CliFlags& flags,
            const std::vector<refscan::LoadFailure>& load_failures,
            const refscan::LoadStats& load_stats) {
  using namespace refscan;
  const ScanOptions options = ScanOptionsFor(flags);
  std::optional<ScanResult> remote;
  if (!flags.remote.empty()) {
    std::string note;
    remote = RemoteScan(tree, options, flags.remote, {}, &note);
    if (!remote) {
      // Unreachable after the whole backoff budget: the local fallback
      // produces byte-identical stdout, so availability costs time, never
      // output.
      std::fprintf(stderr, "refscan: serve daemon unreachable (%s); scanning locally\n",
                   note.c_str());
    }
  }
  ScanResult result;
  if (remote) {
    result = std::move(*remote);
  } else if (flags.workers > 0) {
    // The worker subprocesses re-exec this binary; they inherit
    // REFSCAN_FAULTS from the environment, and a --faults spec travels in
    // the options so worker-side sites fire either way.
    ShardedScanConfig config;
    config.workers = flags.workers;
    config.worker_cmd = "/proc/self/exe";
    ScanOptions sharded_options = options;
    sharded_options.fault_spec = flags.fault_spec;
    result = ShardedScan(tree, sharded_options, config);
  } else {
    result = CheckerEngine(KnowledgeBase::BuiltIn(), options).Scan(tree);
  }
  AddLoadFailures(result, load_failures, load_stats);

  if (result.aborted) {
    std::fprintf(stderr, "scan aborted: %s\n", result.abort_reason.c_str());
    if (flags.json) {
      std::printf("%s", ScanResultToJson(result, flags.stats).c_str());
    }
    return kExitHardFailure;
  }

  const int exit_code = ScanExitCodeFor(result);

  const bool cache_on = !options.cache_dir.empty() || !options.cache_server.empty();
  if (flags.json) {
    if (cache_on) {
      // Keep stdout byte-identical between cold and warm scans: cache
      // accounting goes to stderr in JSON mode.
      std::fprintf(stderr, "cache: %zu hit(s), %zu miss(es), %zu parse skip(s)\n",
                   result.stats.cache_hits, result.stats.cache_misses,
                   result.stats.cache_parse_skips);
    }
    std::printf("%s", ScanResultToJson(result, flags.stats).c_str());
    return exit_code;
  }

  std::printf("scanned %zu files, %zu functions (%zu refcounting APIs known, "
              "%zu smartloops)\n\n",
              result.stats.files, result.stats.functions, result.stats.discovered_apis,
              result.stats.discovered_smart_loops);
  if (cache_on) {
    std::printf("cache: %zu hit(s), %zu miss(es), %zu parse skip(s)\n\n",
                result.stats.cache_hits, result.stats.cache_misses,
                result.stats.cache_parse_skips);
  }

  if (!flags.stats_only) {
    for (const BugReport& r : result.reports) {
      std::printf("%s:%u: [P%d %s/%s] %s\n", r.file.c_str(), r.line, r.anti_pattern,
                  std::string(AntiPatternName(r.anti_pattern)).c_str(),
                  std::string(ImpactName(r.impact)).c_str(), r.message.c_str());
      std::printf("    function: %s   template: %s\n", r.function.c_str(),
                  r.template_path.c_str());
      if (flags.print_fixes) {
        const SourceFile* file = tree.Find(r.file);
        if (file != nullptr) {
          const FixSuggestion fix = SuggestFix(r, *file);
          if (fix.available) {
            std::printf("    suggested patch: %s\n%s", fix.summary.c_str(), fix.diff.c_str());
          } else {
            std::printf("    (no mechanical fix: %s)\n", fix.summary.c_str());
          }
        }
      }
      std::printf("\n");
    }
  }
  std::printf("%zu report(s).\n", result.reports.size());
  PrintDegraded(stdout, result);

  if (flags.stats) {
    // Driven by the same field table as the JSON stats object, so the text
    // view can never silently miss a ScanStats field either.
    std::printf("\nstats:\n");
    for (const ScanStatsField& f : ScanStatsFields()) {
      std::printf("  %-22s %zu\n", f.json_key, result.stats.*f.member);
    }
  }
  return exit_code;
}

// Runs match, deviations or summaries: a client of the scan spine with its
// own output, followed by the abort reason or the quarantine sections (on
// stderr under --json, which keeps stdout parseable). The exit code is the
// scan's, with "found something" standing in for scan reports.
int RunClient(unsigned command, const refscan::SourceTree& tree, const CliFlags& flags,
              const std::optional<refscan::SemanticTemplate>& tmpl,
              const std::vector<refscan::LoadFailure>& load_failures,
              const refscan::LoadStats& load_stats) {
  using namespace refscan;
  ScanOptions options = ScanOptionsFor(flags);
  ScanResult scan;
  std::string out;
  bool found = false;
  if (command == kMatch) {
    const std::vector<BugReport> matches =
        RunTemplateChecker(*tmpl, tree, KnowledgeBase::BuiltIn(), options, &scan);
    for (const BugReport& r : matches) {
      out += StrFormat("%s:%u: [template] %s in %s() (object '%s')\n", r.file.c_str(), r.line,
                       r.template_path.c_str(), r.function.c_str(), r.object.c_str());
    }
    out += StrFormat("%zu match(es).\n", matches.size());
    found = !matches.empty();
  } else if (command == kDeviations) {
    const std::vector<DeviationReport> reports = DetectDeviations(tree, options, &scan);
    for (const DeviationReport& r : reports) {
      out += StrFormat("%s:%u: [%s%s] %s\n", r.file.c_str(), r.line,
                       std::string(DeviationKindName(r.kind)).c_str(),
                       r.hidden ? ", hidden" : "", r.note.c_str());
    }
    out += StrFormat("%zu deviant API(s).\n", reports.size());
    found = !reports.empty();
  } else {
    // The summaries are stage 2.5 of the spine's front half.
    options.interprocedural = true;
    ScanSpine spine(tree, KnowledgeBase::BuiltIn(), options);
    if (spine.RunFront()) {
      out = flags.json ? SummariesToJson(spine.summaries()) : SummariesToText(spine.summaries());
    }
    scan = spine.Finish();
  }
  AddLoadFailures(scan, load_failures, load_stats);
  if (scan.aborted) {
    std::fprintf(stderr, "scan aborted: %s\n", scan.abort_reason.c_str());
    return kExitHardFailure;
  }
  std::fputs(out.c_str(), stdout);
  PrintDegraded(flags.json ? stderr : stdout, scan);
  const int rc = ScanExitCodeFor(scan);
  return rc == kExitClean && found ? kExitReports : rc;
}

// Writes `text` to `path` (for --trace-out / --metrics-out).
bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  return true;
}

// Writes every corpus file under `dir` so an on-disk `refscan scan` (or any
// external tool) can chew on the synthetic tree. Returns false on I/O error.
bool EmitTree(const refscan::SourceTree& tree, const std::string& dir) {
  namespace stdfs = std::filesystem;
  std::error_code ec;
  for (const auto& [path, file] : tree.files()) {
    const stdfs::path target = stdfs::path(dir) / path;
    stdfs::create_directories(target.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", target.parent_path().c_str(),
                   ec.message().c_str());
      return false;
    }
    std::FILE* out = std::fopen(target.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", target.c_str());
      return false;
    }
    const std::string_view text = file.text();
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
  std::printf("emitted %zu files under %s\n", tree.size(), dir.c_str());
  return true;
}

// The flow every tree subcommand shares: parse its flags against its row
// of kFlagTable, arm --faults and telemetry, load or generate the tree,
// run, then write --trace-out and --metrics-out.
int RunTreeCommand(unsigned command, int argc, char** argv) {
  using namespace refscan;
  // Positional arguments: <dir> for all but demo, then match's template.
  const int first_flag = command == kDemo ? 2 : command == kMatch ? 4 : 3;
  CliFlags flags;
  if (!ParseFlags(argc, argv, first_flag, command, flags)) {
    return Usage();
  }
  if (!flags.remote.empty()) {
    // The daemon scans with its own threads and its resident store.
    for (const char* local : {"--workers", "--cache-dir", "--cache-server"}) {
      if (flags.given.contains(local)) {
        std::fprintf(stderr, "%s does not apply with --remote\n", local);
        return Usage();
      }
    }
  }
  if (flags.interprocedural) {
    // Stage 2.5 summarises every unit at once, in this process.
    for (const char* resident : {"--streaming", "--workers"}) {
      if (flags.given.contains(resident)) {
        std::fprintf(stderr, "%s does not apply with --ipa\n", resident);
        return Usage();
      }
    }
  }
  std::optional<SemanticTemplate> tmpl;
  if (command == kMatch) {
    tmpl = ParseTemplate(argv[3]);
    if (!tmpl.has_value()) {
      std::fprintf(stderr, "cannot parse template: %s\n", argv[3]);
      return kExitUsage;
    }
  }
  if (command == kStats) {
    flags.stats = true;
    flags.stats_only = true;
  }
  // Arm --faults process-wide before the tree load so fs.read rules fire
  // during it (ScanOptions::fault_spec would only cover the scan). A
  // malformed spec on the command line is a usage error (the env-var
  // variant stays a hard failure: nothing was typed to correct).
  if (!flags.fault_spec.empty()) {
    FaultPlan plan;
    std::string fault_error;
    if (!ParseFaultSpec(flags.fault_spec, plan, &fault_error)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", fault_error.c_str());
      return kExitUsage;
    }
    ArmFaults(std::move(plan));
  }
  // Arm a telemetry session around the whole run (load + scan) when any
  // export was requested, and disarm before writing: no span can still be
  // in flight when the buffers are read.
  Telemetry session;
  std::optional<ScopedTelemetry> telemetry_arm;
  if (!flags.trace_out.empty() || !flags.metrics_out.empty()) {
    telemetry_arm.emplace(session);
  }

  SourceTree tree;
  std::vector<LoadFailure> load_failures;
  LoadStats load_stats;
  if (command == kDemo) {
    std::printf("generating the synthetic kernel corpus and scanning it...\n\n");
    CorpusOptions corpus_options;
    corpus_options.kernelish_modules = static_cast<int>(flags.kernelish);
    tree = GenerateKernelCorpus(corpus_options).tree;
    if (!flags.emit_dir.empty() && !EmitTree(tree, flags.emit_dir)) {
      return kExitHardFailure;
    }
  } else {
    LoadOptions load_options;
    load_options.jobs = flags.jobs;
    tree = LoadSourceTreeFromDisk(argv[2], load_options, &load_failures, &load_stats);
    for (const LoadFailure& f : load_failures) {
      std::fprintf(stderr, "warning: %s: %s\n", f.path.c_str(), f.what.c_str());
    }
    if (tree.size() == 0) {
      std::fprintf(stderr, "no C sources found under %s\n", argv[2]);
      return kExitHardFailure;
    }
  }

  int rc = (command & kScanLike) != 0
               ? RunScan(tree, flags, load_failures, load_stats)
               : RunClient(command, tree, flags, tmpl, load_failures, load_stats);
  telemetry_arm.reset();
  if (!flags.trace_out.empty() && !WriteTextFile(flags.trace_out, session.TraceToChromeJson())) {
    return kExitHardFailure;
  }
  if (!flags.metrics_out.empty() &&
      !WriteTextFile(flags.metrics_out, session.MetricsToPrometheusText())) {
    return kExitHardFailure;
  }
  if (command == kStats && rc == kExitReports) {
    rc = kExitClean;  // reports are not what `stats` asks about
  }
  if (command == kDemo) {
    // The corpus is a bug corpus — finding reports is the expected outcome,
    // so only a degraded or failed scan is an error here. The kernelish
    // extension plants deliberately unparseable functions, so with it a
    // degraded (function-quarantine) exit is the expected outcome too.
    rc = rc == kExitHardFailure || (rc == kExitDegraded && flags.kernelish == 0) ? 1 : 0;
  }
  return rc;
}

// A daemon counter, for the status lines.
unsigned long long CounterOf(const refscan::MetricsRegistry& metrics, std::string_view name) {
  return static_cast<unsigned long long>(metrics.CounterValue(name));
}

// The one lifecycle of the daemon subcommands (`cached`, `serve`): block
// SIGINT/SIGTERM before Start spawns any thread (every thread inherits the
// mask, so sigwait here is the one consumer and no thread can die of the
// signal's default action), serve in the foreground with `side` (serve's
// --watch loop) running alongside until a signal arrives, then drain —
// requests already received finish and flush; only a hung connection
// forces the escalation — and print `farewell(clean)`.
int RunDaemon(refscan::FrameServer& server, const char* name, const std::string& banner,
              uint32_t drain_timeout_ms,
              const std::function<void(const std::atomic<bool>& stop)>& side,
              const std::function<std::string(bool clean)>& farewell) {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "refscan %s: %s\n", name, error.c_str());
    return refscan::kExitHardFailure;
  }
  std::printf("refscan %s: %s\n", name, banner.c_str());
  std::fflush(stdout);
  std::atomic<bool> stop{false};
  std::thread side_thread;
  if (side) {
    side_thread = std::thread([&side, &stop] { side(stop); });
  }
  int sig = 0;
  sigwait(&set, &sig);
  stop.store(true, std::memory_order_relaxed);
  if (side_thread.joinable()) {
    side_thread.join();
  }
  const bool clean = server.Drain(drain_timeout_ms);
  std::printf("refscan %s: %s\n", name, farewell(clean).c_str());
  return clean ? 0 : refscan::kExitHardFailure;
}

int RealMain(int argc, char** argv) {
  using namespace refscan;

  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];

  if (command == "worker") {
    // Internal: spawned by `scan --workers N`. Not part of the documented
    // surface, but inert if invoked by hand (it just waits for a
    // coordinator that never comes, then errors out).
    CliFlags flags;
    if (!ParseFlags(argc, argv, 2, kWorker, flags) || flags.socket.empty()) {
      return Usage();
    }
    return RunShardWorker(flags.socket, static_cast<int>(flags.worker_id));
  }

  if (command == "cached") {
    CliFlags flags;
    if (!ParseFlags(argc, argv, 3, kCached, flags)) {
      return Usage();
    }
    const std::string dir = argv[2];
    const std::string socket = flags.socket.empty() ? dir + "/cached.sock" : flags.socket;
    CacheServer server(dir, socket);
    return RunDaemon(server, "cached", "serving " + dir + " on " + socket,
                     ServeConfig{}.drain_timeout_ms, {}, [&server](bool /*clean*/) {
                       const MetricsRegistry& m = server.metrics();
                       return StrFormat("%llu get(s), %llu hit(s), %llu put(s)",
                                        CounterOf(m, "cached.gets"), CounterOf(m, "cached.hits"),
                                        CounterOf(m, "cached.puts"));
                     });
  }

  if (command == "serve") {
    CliFlags flags;
    if (!ParseFlags(argc, argv, 3, kServe, flags)) {
      return Usage();
    }
    if (flags.watch_dir.empty() && (flags.given.contains("--poll-ms") ||
                                    flags.given.contains("--jobs"))) {
      std::fprintf(stderr, "--poll-ms and --jobs configure the --watch loop; give --watch\n");
      return Usage();
    }
    ServeConfig config;
    config.socket_path = argv[2];
    config.sessions = flags.sessions;
    config.max_pending = flags.max_pending;
    config.request_timeout_ms = flags.request_timeout_ms;
    config.drain_timeout_ms = flags.drain_timeout_ms;
    ScanServer server(config);
    std::function<void(const std::atomic<bool>&)> watch_loop;
    if (!flags.watch_dir.empty()) {
      watch_loop = [&server, &flags](const std::atomic<bool>& stop) {
        WatchConfig watch;
        watch.tree_dir = flags.watch_dir;
        watch.poll_ms = flags.poll_ms;
        ScanOptions options;
        options.jobs = flags.jobs;
        RunWatchLoop(watch, options, server.store(), stop, stdout);
      };
    }
    return RunDaemon(server, "serve", "listening on " + config.socket_path,
                     config.drain_timeout_ms, watch_loop, [&server](bool clean) {
                       const MetricsRegistry& m = server.metrics();
                       return StrFormat("drained%s; %llu request(s), %llu scan(s), %llu shed, "
                                        "%llu faulted, %llu timed out",
                                        clean ? "" : " (escalated)",
                                        CounterOf(m, "serve.requests"), CounterOf(m, "serve.scans"),
                                        CounterOf(m, "serve.shed"), CounterOf(m, "serve.faulted"),
                                        CounterOf(m, "serve.timed_out"));
                     });
  }

  if (command == "health") {
    CliFlags flags;
    if (!ParseFlags(argc, argv, 3, kHealth, flags)) {
      return Usage();
    }
    std::string reply;
    std::string error;
    const uint8_t type = flags.stats ? kServeStatsReq : kServeHealthReq;
    if (!RemoteRequestText(argv[2], type, "", reply, &error)) {
      std::fprintf(stderr, "refscan health: %s\n", error.c_str());
      return kExitHardFailure;
    }
    std::printf("%s%s", reply.c_str(), reply.ends_with('\n') ? "" : "\n");
    return 0;
  }

  if (command == "cache") {
    CliFlags flags;
    if (argc < 3 || std::string_view(argv[2]) != "gc" ||
        !ParseFlags(argc, argv, 4, kCacheGc, flags)) {
      return Usage();
    }
    if (!flags.given.contains("--max-bytes")) {
      std::fprintf(stderr, "cache gc needs --max-bytes N\n");
      return Usage();
    }
    const CacheGcStats gc = RunCacheGc(argv[3], flags.max_bytes);
    std::printf("cache gc: kept %llu object(s) / %llu bytes, evicted %llu object(s) / "
                "%llu bytes\n",
                static_cast<unsigned long long>(gc.kept_objects),
                static_cast<unsigned long long>(gc.kept_bytes),
                static_cast<unsigned long long>(gc.evicted_objects),
                static_cast<unsigned long long>(gc.evicted_bytes));
    return 0;
  }

  if (command == "dump") {
    if (argc < 3) {
      return Usage();
    }
    std::FILE* f = std::fopen(argv[2], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return kExitHardFailure;
    }
    std::string text;
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(f);
    const SourceFile file(argv[2], std::move(text));
    const std::string stage = argc > 3 ? argv[3] : "cpg";
    if (stage == "tokens") {
      std::printf("%s", DumpTokens(file).c_str());
      return 0;
    }
    const TranslationUnit unit = ParseFile(file);
    if (stage == "ast") {
      std::printf("%s", DumpAst(unit).c_str());
      return 0;
    }
    KnowledgeBase kb = KnowledgeBase::BuiltIn();
    kb.DiscoverFromUnit(unit);
    kb.DiscoverFromUnit(unit);
    for (const FunctionDef& fn : unit.functions) {
      const Cfg cfg = BuildCfg(fn);
      if (stage == "cfg") {
        std::printf("%s\n", DumpCfg(cfg).c_str());
        continue;
      }
      const Cpg cpg = BuildCpg(cfg, kb);
      std::printf("== %s ==\n%s\n", fn.name.c_str(), DumpCpg(cpg).c_str());
    }
    return 0;
  }

  for (const auto& [name, bit] : {std::pair{"scan", kScan}, std::pair{"stats", kStats},
                                   std::pair{"demo", kDemo}, std::pair{"match", kMatch},
                                   std::pair{"deviations", kDeviations},
                                   std::pair{"summaries", kSummaries}}) {
    if (command == name) {
      return RunTreeCommand(bit, argc, argv);
    }
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  // REFSCAN_FAULTS arms the fault-injection registry for the whole run (the
  // CI fault-matrix uses this). A malformed spec fails loudly: silently
  // running un-faulted would make injection-based jobs pass vacuously.
  std::string fault_error;
  if (!refscan::ArmFaultsFromEnv(&fault_error)) {
    std::fprintf(stderr, "refscan: bad REFSCAN_FAULTS: %s\n", fault_error.c_str());
    return 1;
  }
  try {
    return RealMain(argc, argv);
  } catch (const std::exception& e) {
    // Last-resort barrier: per-file sandboxes should have contained
    // anything recoverable, so whatever reaches here is a hard failure.
    std::fprintf(stderr, "refscan: fatal: %s\n", e.what());
    return 1;
  }
}
