// Performance microbenchmarks (google-benchmark) for the analysis pipeline:
// tokenizing, parsing, CFG+CPG construction, full-tree scanning, history
// mining, and one word2vec training step. Not a paper table — engineering
// numbers for the README.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "src/ast/parser.h"
#include "src/checkers/engine.h"
#include "src/corpus/generator.h"
#include "src/cpg/cpg.h"
#include "src/embed/corpus_text.h"
#include "src/embed/word2vec.h"
#include "src/histmine/miner.h"
#include "src/ipa/summary.h"
#include "src/lexer/lexer.h"
#include "src/serve/client.h"
#include "src/serve/serve.h"
#include "src/support/fs.h"
#include "src/support/telemetry.h"
#include "src/support/threadpool.h"

namespace refscan {
namespace {

const SourceFile& SampleFile() {
  static const SourceFile* file = [] {
    const Corpus corpus = GenerateKernelCorpus();
    // Pick the largest generated file as the representative input.
    const SourceFile* largest = nullptr;
    for (const auto& [path, f] : corpus.tree.files()) {
      if (largest == nullptr || f.text().size() > largest->text().size()) {
        largest = &f;
      }
    }
    return new SourceFile(*largest);
  }();
  return *file;
}

void BM_Tokenize(benchmark::State& state) {
  const SourceFile& file = SampleFile();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(file));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file.text().size()));
}
BENCHMARK(BM_Tokenize);

void BM_ParseFile(benchmark::State& state) {
  const SourceFile& file = SampleFile();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseFile(file));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file.text().size()));
}
BENCHMARK(BM_ParseFile);

void BM_BuildCfgCpg(benchmark::State& state) {
  const SourceFile& file = SampleFile();
  const TranslationUnit unit = ParseFile(file);
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  for (auto _ : state) {
    for (const FunctionDef& fn : unit.functions) {
      const Cfg cfg = BuildCfg(fn);
      benchmark::DoNotOptimize(BuildCpg(cfg, kb));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(unit.functions.size()));
}
BENCHMARK(BM_BuildCfgCpg);

// Interner hit path (DESIGN.md §5.11): re-interning an already-known mix of
// identifiers, the lexer/parser steady state. Most lookups resolve in the
// per-thread direct-mapped cache without touching a shard mutex.
void BM_InternerLookup(benchmark::State& state) {
  const SourceFile& file = SampleFile();
  const std::vector<Token> tokens = Tokenize(file);
  std::vector<std::string_view> words;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      words.push_back(t.text);
    }
  }
  for (const std::string_view w : words) {
    Intern(w);  // warm: the benchmark measures the known-symbol path
  }
  for (auto _ : state) {
    for (const std::string_view w : words) {
      benchmark::DoNotOptimize(Intern(w));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(words.size()));
}
BENCHMARK(BM_InternerLookup);

// Symbol-keyed KB lookup, the checkers' innermost query: one hash over a
// 32-bit id instead of hashing API-name text. Mixes hits (discovered +
// builtin APIs) with misses (ordinary identifiers) like real call sites.
void BM_KbFindApi(benchmark::State& state) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  const SourceFile& file = SampleFile();
  const TranslationUnit unit = ParseFile(file);
  std::vector<Symbol> callees;
  for (const FunctionDef& fn : unit.functions) {
    ForEachExpr(*fn.body, [&](const Expr& e) {
      if (e.kind == Expr::Kind::kCall) {
        const Symbol name = e.CalleeName();
        if (!name.empty()) {
          callees.push_back(name);
        }
      }
    });
  }
  for (auto _ : state) {
    for (const Symbol name : callees) {
      benchmark::DoNotOptimize(kb.FindApi(name));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(callees.size()));
}
BENCHMARK(BM_KbFindApi);

void BM_FullTreeScan(benchmark::State& state) {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  for (auto _ : state) {
    CheckerEngine engine;
    benchmark::DoNotOptimize(engine.Scan(corpus->tree));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus->tree.size()));
}
BENCHMARK(BM_FullTreeScan)->Unit(benchmark::kMillisecond);

// BM_FullTreeScan with the P10-P12 extension families and both userspace
// dialect catalogues enabled, over the corpus grown with the new-family
// modules (DESIGN.md §5.12). Compare against BM_FullTreeScan for the
// marginal cost of the three extra checkers + dialect KB seeding — the new
// checkers are single-pass over events/traces, so the delta should track
// the ~1% corpus growth, not multiply it.
void BM_FullTreeScanAllFamilies(benchmark::State& state) {
  static const Corpus* corpus = [] {
    CorpusOptions options;
    options.new_family_modules = true;
    return new Corpus(GenerateKernelCorpus(options));
  }();
  ScanOptions options;
  options.enabled_patterns = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  options.dialects = {"glib", "uacpi"};
  for (auto _ : state) {
    CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
    benchmark::DoNotOptimize(engine.Scan(corpus->tree));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus->tree.size()));
}
BENCHMARK(BM_FullTreeScanAllFamilies)->Unit(benchmark::kMillisecond);

// BM_FullTreeScan with a telemetry session armed (DESIGN.md §5.10): every
// stage/file span records and the metrics registry counts. The overhead
// budget is "within noise disarmed" (BM_FullTreeScan is the disarmed
// number — span sites cost one branch there) and single-digit percent
// armed; compare the two to check it.
void BM_FullTreeScanTraced(benchmark::State& state) {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  for (auto _ : state) {
    Telemetry session;
    ScopedTelemetry arm(session);
    CheckerEngine engine;
    benchmark::DoNotOptimize(engine.Scan(corpus->tree));
    benchmark::DoNotOptimize(session.event_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus->tree.size()));
}
BENCHMARK(BM_FullTreeScanTraced)->Unit(benchmark::kMillisecond);

// The threaded scan at 1/2/4/8 workers — BM_FullTreeScan's pipeline with
// ScanOptions::jobs set. Real time (not per-thread CPU time) is the number
// that shows the fan-out paying off; compare against BM_FullTreeScan to get
// the speedup curve (acceptance target: >= 2x at 4 threads on >= 4 cores).
void BM_FullTreeScanParallel(benchmark::State& state) {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  ScanOptions options;
  options.jobs = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
    benchmark::DoNotOptimize(engine.Scan(corpus->tree));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus->tree.size()));
}
BENCHMARK(BM_FullTreeScanParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A generated kernel-realism tree (CorpusOptions::kernelish_modules,
// DESIGN.md §5.15): ~1 MLOC of attribute/asm/statement-expression/CRLF/
// splice heavy C with one deliberately unparseable function in every other
// module, so the run also exercises function-granular quarantine at scale.
// Arg toggles ScanOptions::streaming; compare the two for the streaming
// lifecycle's time cost (its memory win shows in EXPERIMENTS.md's RSS
// column, which google-benchmark does not measure).
void BM_KernelishScan(benchmark::State& state) {
  static const Corpus* corpus = [] {
    CorpusOptions options;
    options.kernelish_modules = 1200;  // ~850 lines per module -> ~1 MLOC
    return new Corpus(GenerateKernelCorpus(options));
  }();
  static const uint64_t lines = [] {
    uint64_t total = 0;
    for (const auto& [path, file] : corpus->tree.files()) {
      total += file.line_count();
    }
    return total;
  }();
  ScanOptions options;
  options.jobs = 4;
  options.streaming = state.range(0) != 0;
  for (auto _ : state) {
    CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
    benchmark::DoNotOptimize(engine.Scan(corpus->tree));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lines));
}
BENCHMARK(BM_KernelishScan)->Arg(0)->Arg(1)->UseRealTime()->Unit(benchmark::kMillisecond);

// Stage 2.5 in isolation: call graph + bottom-up summary propagation over
// the whole corpus (parse and discovery excluded), at 1 and 4 workers.
void BM_SummaryComputation(benchmark::State& state) {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  static const auto* parsed = [] {
    auto* units = new std::vector<TranslationUnit>();
    for (const auto& [path, file] : corpus->tree.files()) {
      units->push_back(ParseFile(file));
    }
    return units;
  }();
  std::vector<const TranslationUnit*> ptrs;
  for (const TranslationUnit& unit : *parsed) {
    ptrs.push_back(&unit);
  }
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    KnowledgeBase kb = KnowledgeBase::BuiltIn();
    for (const TranslationUnit& unit : *parsed) {
      kb.DiscoverFromUnit(unit);
    }
    benchmark::DoNotOptimize(ComputeSummaries(ptrs, kb, SummaryOptions{}, pool));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(parsed->size()));
}
BENCHMARK(BM_SummaryComputation)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Full scan with the interprocedural stage toggled, at 1 and 4 workers —
// quantifies the summary stage's overhead on top of BM_FullTreeScanParallel.
void BM_FullTreeScanInterprocedural(benchmark::State& state) {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  ScanOptions options;
  options.interprocedural = state.range(0) != 0;
  options.jobs = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
    benchmark::DoNotOptimize(engine.Scan(corpus->tree));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus->tree.size()));
}
BENCHMARK(BM_FullTreeScanInterprocedural)
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Incremental rescan with the persistent cache (DESIGN.md §5.8): prime the
// cache once, then per iteration touch range(0) percent of the corpus files
// (a trailing comment — content changes, discovery facts do not, so the KB
// fingerprint stays stable and untouched files stay hot) and rescan.
// Compare against BM_FullTreeScan for the speedup (acceptance target: >= 5x
// at 0–1% change rates).
void BM_IncrementalRescan(benchmark::State& state) {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  namespace stdfs = std::filesystem;
  const int pct = static_cast<int>(state.range(0));
  const std::string cache_dir =
      (stdfs::temp_directory_path() / ("refscan_bench_cache_" + std::to_string(pct))).string();
  stdfs::remove_all(cache_dir);
  ScanOptions options;
  options.cache_dir = cache_dir;
  {
    CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
    benchmark::DoNotOptimize(engine.Scan(corpus->tree));  // prime
  }
  std::vector<std::string> paths;
  for (const auto& [path, file] : corpus->tree.files()) {
    paths.push_back(path);
  }
  const size_t changed = paths.size() * static_cast<size_t>(pct) / 100;
  size_t rev = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SourceTree tree;
    ++rev;
    for (size_t i = 0; i < paths.size(); ++i) {
      std::string text(corpus->tree.Find(paths[i])->text());
      if (i < changed) {
        text += "// rev " + std::to_string(rev) + "\n";
      }
      tree.Add(paths[i], std::move(text));
    }
    state.ResumeTiming();
    CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
    benchmark::DoNotOptimize(engine.Scan(tree));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(paths.size()));
  stdfs::remove_all(cache_dir);
}
BENCHMARK(BM_IncrementalRescan)->Arg(0)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

// A warm rescan against the resident service (`refscan serve`, DESIGN.md
// §5.14): one in-process ScanServer holds the tree's artifacts in its
// MemoryStore; each iteration ships the unchanged tree over the Unix socket
// and gets the cached verdict back. Includes the full transport cost
// (encode + two frame copies + decode), so compare against
// BM_FullTreeScanParallel at the same job count for the resident win and
// against BM_IncrementalRescan/0 for the socket tax over the in-process
// warm path.
void BM_ResidentScan(benchmark::State& state) {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  ServeConfig config;
  config.socket_path = "/tmp/refscan-bench-serve-" + std::to_string(::getpid()) + ".sock";
  ScanServer server(config);
  if (!server.Start()) {
    state.SkipWithError("cannot start resident server");
    return;
  }
  ScanOptions options;
  options.jobs = static_cast<size_t>(state.range(0));
  benchmark::DoNotOptimize(
      RemoteScan(corpus->tree, options, config.socket_path));  // prime the store
  for (auto _ : state) {
    benchmark::DoNotOptimize(RemoteScan(corpus->tree, options, config.socket_path));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus->tree.size()));
  server.Drain();
}
BENCHMARK(BM_ResidentScan)->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// On-disk tree loading at 1 and 4 reader threads: the corpus is emitted to
// a temp directory once, then LoadSourceTreeFromDisk (serial walk, parallel
// pre-sized reads) slurps it back.
void BM_ParallelTreeLoad(benchmark::State& state) {
  namespace stdfs = std::filesystem;
  static const std::string* root = [] {
    const Corpus corpus = GenerateKernelCorpus();
    auto* dir = new std::string(
        (stdfs::temp_directory_path() / "refscan_bench_tree").string());
    stdfs::remove_all(*dir);
    for (const auto& [path, file] : corpus.tree.files()) {
      const stdfs::path target = stdfs::path(*dir) / path;
      stdfs::create_directories(target.parent_path());
      std::ofstream out(target, std::ios::binary);
      const std::string_view text = file.text();
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    return dir;
  }();
  LoadOptions options;
  options.jobs = static_cast<size_t>(state.range(0));
  size_t files = 0;
  for (auto _ : state) {
    const SourceTree tree = LoadSourceTreeFromDisk(*root, options);
    files = tree.size();
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(files));
}
BENCHMARK(BM_ParallelTreeLoad)->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_MineHistory(benchmark::State& state) {
  HistoryOptions options;
  options.noise_commits = static_cast<int>(state.range(0));
  static std::map<int, History> cache;
  History& history = cache.try_emplace(options.noise_commits, GenerateHistory(options))
                         .first->second;
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineRefcountBugs(history, kb));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(history.commits.size()));
}
BENCHMARK(BM_MineHistory)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_Word2VecEpoch(benchmark::State& state) {
  HistoryOptions options;
  options.noise_commits = 2000;
  static const History* history = new History(GenerateHistory(options));
  static const auto* sentences =
      new std::vector<std::vector<std::string>>(BuildCommitSentences(*history));
  for (auto _ : state) {
    Word2Vec model;
    EmbedOptions embed;
    embed.epochs = 1;
    model.Train(*sentences, embed);
    benchmark::DoNotOptimize(model.vocab_size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sentences->size()));
}
BENCHMARK(BM_Word2VecEpoch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace refscan

int main(int argc, char** argv) {
  // The build type of *this* binary, not of the benchmark library (Debian
  // ships a debug libbenchmark, so context.library_build_type lies about us).
  benchmark::AddCustomContext("refscan_build_type", REFSCAN_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
