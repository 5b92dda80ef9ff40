// The perfbench binary: refscan's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Sets the workload up several times, runs a closed loop of ops from one
// client for S seconds, and sets it up several times again (setup_s is the
// median of all set-ups). Series workloads stop
// on a whole release cycle, so every run holds the same share of
// cache-invalidating releases. Every op's reports are checked against the
// generator's ground truth, and the cached, resident and replayed results
// against a cold in-process scan of the same input.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends the first half
// of the run on untraced ops and the second half replaying ops layer by
// layer (replay.h); it reports per-layer metrics, the overhead of tracing,
// and writes the spans as a Chrome trace.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Failed ops make the exit code non-zero.

#include <stdlib.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/checkers/report.h"

namespace perfbench {
namespace {

using refscan::BugReport;

// Each batch of set-ups runs at least kMinSetups times, and again until
// kSetupBudgetS of raw set-up time has passed, so that setup_s is a median
// of enough samples even for the workloads whose set-up takes milliseconds.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudgetS = 2.0;

// Where runs keep their scratch state and traces, relative to the working
// directory (the repository root).
constexpr char kWorkDir[] = ".bench_build/perfbench-work";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  int seen = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else {
      return false;
    }
    if (value.empty() || (end != nullptr && *end != '\0')) {
      return false;
    }
    ++seen;
  }
  return argc == 9 && seen == 4 && args.seconds > 0;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Wall time of a fixed spin on 1 thread against 4 concurrent copies: how
// much parallel throughput the host really delivers (4.0 = four free CPUs).
double EffectiveParallelism() {
  const auto spin = [] {
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<uint64_t> sink;
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  int64_t t0 = NowNs();
  spin();
  const double one = static_cast<double>(NowNs() - t0);
  t0 = NowNs();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back(spin);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double four = static_cast<double>(NowNs() - t0);
  return 4.0 * one / four;
}

// Host-speed normalisation. The hosts this benchmark runs on deliver a CPU
// whose speed drifts by tens of percent over minutes (other tenants), and
// CPU time drifts with it, so raw times of one input differ run to run by
// more than any bound worth having. Every op is therefore bracketed by a
// fixed calibration unit that shares no code with refscan, and each raw
// time t is reported as t * kReferenceUnitMs / unit_ms: the time the op
// would take on a host where one unit takes kReferenceUnitMs. A change to
// refscan moves the op and not the unit; a slower host moves both.
constexpr double kReferenceUnitMs = 2.0;

// The unit is a miniature front end: split C-like text into token strings,
// count them in a std::map, and build, walk and free a binary tree of token
// nodes. Its mix of branches, small allocations and pointer chasing is the
// scan's, so it slows down with the host the way a scan does. Units built
// from one kind of work tracked worse: dependent loads over an L2- or
// L3-sized table slowed up to 5x when a scan slowed 3x.
class Calibrator {
 public:
  Calibrator() {
    static const char* const kWords[] = {
        "static ", "int ", "struct device_node *np", " = ", "of_node_get(", ");\n",
        "if (!np)\n\t\treturn -ENODEV;\n", "{\n", "}\n", "0x1f", " + 42", "kmod_probe_17",
        "ret"};
    uint64_t s = 1;
    while (text_.size() < (1u << 16)) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      text_ += kWords[(s >> 33) % std::size(kWords)];
    }
  }

  // Wall time of one unit, in ms.
  double UnitMs() {
    const int64_t t0 = NowNs();
    std::vector<std::string> tokens;
    std::string token;
    for (const char c : text_) {
      if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
        token += c;
      } else if (!token.empty()) {
        tokens.push_back(std::move(token));
        token.clear();
      }
    }
    std::map<std::string, int> counts;
    for (const std::string& t : tokens) {
      ++counts[t];
    }
    struct Node {
      uint64_t key;
      std::string text;
      std::unique_ptr<Node> left;
      std::unique_ptr<Node> right;
    };
    std::unique_ptr<Node> root;
    uint64_t h = 1469598103934665603ULL;
    for (const std::string& t : tokens) {
      for (const char c : t) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
      std::unique_ptr<Node>* slot = &root;
      for (int depth = 0; *slot != nullptr && depth < 64; ++depth) {
        slot = h < (*slot)->key ? &(*slot)->left : &(*slot)->right;
      }
      if (*slot == nullptr) {
        *slot = std::make_unique<Node>(Node{h, t, nullptr, nullptr});
      }
    }
    sink_ += counts.size() + (root != nullptr ? root->text.size() : 0);
    root.reset();  // at most 64 levels deep: the insert loop stops there
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

 private:
  std::string text_;
  uint64_t sink_ = 0;
};

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Ground-truth scoring of one op's reports.
class Oracle {
 public:
  explicit Oracle(const refscan::Corpus& corpus) : corpus_(corpus) {
    for (const refscan::PlantedBug& bug : corpus.ground_truth) {
      planted_.emplace(bug.file, bug.function);
    }
  }

  void Score(const std::vector<BugReport>& reports) {
    std::set<std::pair<std::string, std::string>> found;
    size_t unexpected = 0;
    for (const BugReport& r : reports) {
      if (planted_.contains({r.file, r.function})) {
        found.emplace(r.file, r.function);
      } else if (!corpus_.IsPlantedFp(r.file, r.function)) {
        ++unexpected;
      }
    }
    const double recall =
        static_cast<double>(found.size()) / static_cast<double>(planted_.size());
    min_recall_ = std::min(min_recall_, recall);
    max_unexpected_ = std::max(max_unexpected_, unexpected);
  }

  double min_recall() const { return min_recall_; }
  size_t max_unexpected() const { return max_unexpected_; }

 private:
  const refscan::Corpus& corpus_;
  std::set<std::pair<std::string, std::string>> planted_;
  double min_recall_ = 1.0;
  size_t max_unexpected_ = 0;
};

// One loop's measurements. Times are host-speed normalised (see
// Calibrator) except the raw_ ones, kept for the summary line.
struct LoopStats {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  std::vector<double> raw_wall_ms;
  std::vector<double> scale;  // kReferenceUnitMs / unit_ms around each op
  double wall_s = 0;
  double lines = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded_mismatches = 0;
  uint64_t reference_checks = 0;
};

// Runs ops until `seconds` have passed (and, for series workloads, the
// current release cycle is complete), starting at op `next_op`.
void RunLoop(Workload& w, Oracle& oracle, Calibrator& cal, double seconds, Tracer* tracer,
             uint64_t& next_op, LoopStats& s) {
  // The budget is in normalised seconds too (capped at twice the raw
  // budget), so a run holds about as many ops however fast the host is at
  // the moment. That keeps what grows with the op count -- the resident
  // store, and so peak RSS -- comparable.
  const int64_t start = NowNs();
  const uint64_t first = next_op;
  double scale_sum = 0;
  for (;; ++next_op) {
    const double mean_scale =
        s.scale.empty() ? 1.0 : scale_sum / static_cast<double>(s.scale.size());
    const double raw_s = static_cast<double>(NowNs() - start) / 1e9;
    const bool time_up = raw_s * mean_scale >= seconds || raw_s >= 2 * seconds;
    const bool cycle_done = !w.series() || (next_op - 1) % kReleaseCycle == 0;
    if (time_up && cycle_done && next_op > first) {
      break;
    }
    const uint64_t op = next_op;
    w.PrepareOp(op);
    if (tracer != nullptr) {
      tracer->set_op(static_cast<uint32_t>(op));
    }
    const double unit_before = cal.UnitMs();
    const double c0 = ProcessCpuMs();
    const int64_t t0 = NowNs();
    OpOutcome out;
    {
      Span span(tracer, "op");
      out = w.RunOp(tracer);
    }
    const double wall = static_cast<double>(NowNs() - t0) / 1e6;
    const double cpu = ProcessCpuMs() - c0;
    const double scale = 2 * kReferenceUnitMs / (unit_before + cal.UnitMs());
    ++s.attempted;
    s.wall_ms.push_back(wall * scale);
    s.cpu_ms.push_back(cpu * scale);
    s.raw_wall_ms.push_back(wall);
    s.scale.push_back(scale);
    scale_sum += scale;
    s.wall_s += wall * scale / 1e3;
    s.lines += static_cast<double>(out.tree->LinesUnder(""));

    bool failed = !out.ok;
    if (failed) {
      std::fprintf(stderr, "perfbench: op %llu failed: %s\n", static_cast<unsigned long long>(op),
                   out.error.c_str());
    }
    // The reference check: series releases that matter (the first, every
    // cache-invalidating one) and, when traced, the first replayed op.
    const bool check = !failed && ((w.series() && (op == 1 || op % kReleaseCycle == 0)) ||
                                   (tracer != nullptr && op == first));
    if (check) {
      ++s.reference_checks;
      if (refscan::ReportsToJson(out.reports) !=
          refscan::ReportsToJson(w.ReferenceScan(*out.tree))) {
        std::fprintf(stderr, "perfbench: op %llu reports differ from a cold in-process scan\n",
                     static_cast<unsigned long long>(op));
        failed = true;
      }
    }
    s.failed += failed ? 1 : 0;
    if (out.ok) {
      oracle.Score(out.reports);
      if (out.functions_degraded != w.expected_degraded()) {
        ++s.degraded_mismatches;
      }
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 64;
  }
  if (std::strcmp(REFSCAN_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", REFSCAN_BUILD_TYPE);
    return 2;
  }
  const std::string dir =
      std::string(kWorkDir) + "/" + args.workload + "-" + std::to_string(::getpid());
  std::unique_ptr<Workload> w = Workload::Create(args.workload, args.seed, dir);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 64;
  }

  // Set-up is timed in two batches, one before the ops and (untraced) one
  // after them, so that setup_s samples the host at both ends of the run.
  Calibrator cal;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    double total_s = 0;
    for (int i = 0; i < kMaxSetups && (i < kMinSetups || total_s < kSetupBudgetS); ++i) {
      std::string error;
      w->TearDown();  // the previous repetition's state; not part of set-up
      const double unit_before = cal.UnitMs();
      const int64_t t0 = NowNs();
      if (!w->SetUp(error)) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
        return false;
      }
      const double raw_s = static_cast<double>(NowNs() - t0) / 1e9;
      total_s += raw_s;
      setup_s.push_back(raw_s * 2 * kReferenceUnitMs / (unit_before + cal.UnitMs()));
    }
    return true;
  };
  if (!set_up()) {
    return 1;
  }
  std::printf("{\"inputs\": {\"workload\": \"%s\", \"seed\": %llu, \"files\": %zu, "
              "\"digest\": \"%016llx\"}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), w->files(),
              static_cast<unsigned long long>(w->InputDigest()));

  Oracle oracle(w->corpus());
  uint64_t next_op = 1;
  LoopStats run;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!args.trace) {
    RunLoop(*w, oracle, cal, args.seconds, nullptr, next_op, run);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    if (!set_up()) {
      return 1;
    }
    metrics = {
        {"setup_s", {Quantile(setup_s, 0.5), "s"}},
        {"op_ms_p50", {Quantile(run.wall_ms, 0.5), "ms"}},
        {"op_cpu_ms_p50", {Quantile(run.cpu_ms, 0.5), "ms"}},
        {"lines_per_s", {run.lines / run.wall_s, "1/s"}},
        {"peak_rss_mib", {static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"}},
        {"recall", {oracle.min_recall(), "ratio"}},
    };
  } else {
    LoopStats plain;
    RunLoop(*w, oracle, cal, args.seconds / 2, nullptr, next_op, plain);
    Tracer tracer;
    RunLoop(*w, oracle, cal, args.seconds / 2, &tracer, next_op, run);
    // Per-op means, normalised with the traced ops' median host speed.
    const double ops = static_cast<double>(run.attempted);
    const double scale = Quantile(run.scale, 0.5);
    const std::map<std::string, double> self_ms = tracer.SelfMs();
    const std::map<std::string, double>& counts = tracer.counts();
    const auto self = [&](const std::string& span) {
      const auto it = self_ms.find(span);
      return it == self_ms.end() ? 0.0 : it->second * scale / ops;
    };
    const auto count = [&](const std::string& name) {
      const auto it = counts.find(name);
      return it == counts.end() ? 0.0 : it->second / ops;
    };
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    metrics = {
        {"fs.load_ms", {self("fs.load"), "ms"}},
        {"fs.bytes_read", {count("fs.bytes_read"), "bytes"}},
        {"cache.key_ms", {self("cache.key"), "ms"}},
        {"cache.get_ms", {self("cache.get"), "ms"}},
        {"cache.decode_ms", {self("cache.load"), "ms"}},
        {"cache.put_ms", {self("cache.put"), "ms"}},
        {"cache.hits", {count("cache.hits"), "count"}},
        {"cache.misses", {count("cache.misses"), "count"}},
        {"cache.hit_ratio",
         {ratio(count("cache.hits"), count("cache.hits") + count("cache.misses")), "ratio"}},
        {"cache.bytes_read", {count("cache.bytes_read"), "bytes"}},
        {"cache.bytes_written", {count("cache.bytes_written"), "bytes"}},
        {"cache.kb_snapshot_hits", {count("cache.kb_snapshot_hits"), "count"}},
        {"lexer.tokenize_ms", {self("lexer.tokenize"), "ms"}},
        {"lexer.tokens", {count("lexer.tokens"), "count"}},
        {"ast.parse_ms", {self("ast.parse"), "ms"}},
        {"ast.functions", {count("ast.functions"), "count"}},
        {"ast.functions_degraded", {count("ast.functions_degraded"), "count"}},
        {"kb.extract_ms", {self("kb.extract"), "ms"}},
        {"kb.discover_ms", {self("kb.discover"), "ms"}},
        {"kb.apis", {count("kb.apis"), "count"}},
        {"ipa.summarize_ms", {self("ipa.summarize"), "ms"}},
        {"ipa.summarized_functions", {count("ipa.summarized_functions"), "count"}},
        {"cfg.build_ms", {self("cfg.build"), "ms"}},
        {"cfg.nodes", {count("cfg.nodes"), "count"}},
        {"cpg.build_ms", {self("cpg.build"), "ms"}},
        {"cpg.events", {count("cpg.events"), "count"}},
        {"checkers.context_ms", {self("checkers.context"), "ms"}},
        {"checkers.acquisitions_ms", {self("checkers.acquisitions"), "ms"}},
    };
    for (int p = 1; p <= 12; ++p) {
      const std::string span = "checkers.p" + std::to_string(p);
      metrics.push_back({span + "_ms", {self(span), "ms"}});
    }
    const double traced_p50 = Quantile(run.wall_ms, 0.5);
    metrics.insert(metrics.end(), {
        {"checkers.merge_ms", {self("checkers.merge"), "ms"}},
        {"checkers.raw_reports", {count("checkers.raw_reports"), "count"}},
        {"checkers.reports", {count("checkers.reports"), "count"}},
        {"checkers.dedup_ratio",
         {ratio(count("checkers.reports"), count("checkers.raw_reports")), "ratio"}},
        {"serve.request_ms", {self("serve.request"), "ms"}},
        {"serve.client_cpu_ms", {count("serve.client_cpu_ms") * scale, "ms"}},
        {"trace.overhead_ratio", {traced_p50 / Quantile(plain.wall_ms, 0.5), "ratio"}},
    });
    run.attempted += plain.attempted;
    run.failed += plain.failed;
    run.degraded_mismatches += plain.degraded_mismatches;

    const std::string trace_out = std::string(kWorkDir) + "/trace-" + args.workload + "-" +
                                  std::to_string(args.seed) + ".json";
    std::filesystem::create_directories(std::filesystem::path(trace_out).parent_path());
    if (!tracer.WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("{\"trace\": {\"file\": \"%s\", \"traced_ops\": %zu, \"untraced_op_ms_p50\": %s, "
                "\"traced_op_ms_p50\": %s}}\n",
                trace_out.c_str(), run.wall_ms.size(), Json(Quantile(plain.wall_ms, 0.5)).c_str(),
                Json(traced_p50).c_str());
  }
  w.reset();  // removes the workload's scratch directory

  const double error_rate =
      static_cast<double>(run.failed) / static_cast<double>(std::max<uint64_t>(run.attempted, 1));
  const bool correct = run.failed == 0 && oracle.min_recall() == 1.0 &&
                       oracle.max_unexpected() == 0 && run.degraded_mismatches == 0;
  // Measured last, so that its four spinning threads disturb no timing.
  double loadavg[3] = {0, 0, 0};
  getloadavg(loadavg, 3);
  std::printf("{\"context\": {\"nproc\": %u, \"loadavg_1m\": %s, \"build_type\": \"%s\", "
              "\"effective_parallelism\": %s, \"jobs\": 1, \"clients\": 1}}\n",
              std::thread::hardware_concurrency(), Json(loadavg[0]).c_str(), REFSCAN_BUILD_TYPE,
              Json(EffectiveParallelism()).c_str());

  // The p90 needs ten samples beyond it to mean anything.
  const std::string p90 = run.wall_ms.size() >= 100 ? Json(Quantile(run.wall_ms, 0.9)) : "null";
  std::printf("{\"summary\": {\"ops\": %llu, \"error_rate\": %s, \"recall\": %s, "
              "\"unexpected_reports\": %zu, \"degraded_mismatches\": %llu, "
              "\"reference_checks\": %llu, \"op_ms_p90\": %s, \"raw_op_ms_p50\": %s, "
              "\"host_speed_scale_p50\": %s, \"setups\": %zu}}\n",
              static_cast<unsigned long long>(run.attempted), Json(error_rate).c_str(),
              Json(oracle.min_recall()).c_str(), oracle.max_unexpected(),
              static_cast<unsigned long long>(run.degraded_mismatches),
              static_cast<unsigned long long>(run.reference_checks), p90.c_str(),
              Json(Quantile(run.raw_wall_ms, 0.5)).c_str(), Json(Quantile(run.scale, 0.5)).c_str(),
              setup_s.size());

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.attempted);
  line += ", \"failed\": " + std::to_string(run.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    line += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + Json(value.first) +
            ", \"unit\": \"" + value.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return run.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
