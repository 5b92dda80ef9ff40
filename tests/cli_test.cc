// The per-subcommand flag contract of the `refscan` binary: every flag a
// tree subcommand accepts either takes visible effect or exits 64 (the
// flag table in README.md). Runs the real CLI (REFSCAN_CLI_PATH, a compile
// definition pointing at the built `refscan`) over each tree subcommand ×
// {--dialect, --faults, --trace-out, --cache-dir}.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace {

namespace stdfs = std::filesystem;

struct CliRun {
  int rc = -1;
  std::string output;  // stdout and stderr together
};

// Runs the binary with `args`, and with `env` (shell assignments such as
// "NAME='value'") in its environment.
CliRun RunCli(const std::vector<std::string>& args, const std::string& env = "") {
  std::string command = env.empty() ? REFSCAN_CLI_PATH : env + " " + REFSCAN_CLI_PATH;
  for (const std::string& arg : args) {
    command += " '" + arg + "'";  // no argument here contains a single quote
  }
  command += " 2>&1";
  CliRun run;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  run.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// A GLib tree under drivers/: a wrapper that may return NULL, a leak on an
// error path and a use after unref — every tree subcommand's output changes
// once the glib dialect teaches the KB g_object_ref/unref.
constexpr const char* kGlibDriver =
    "struct widget {\n"
    "  GObject *obj;\n"
    "  int ready;\n"
    "};\n"
    "\n"
    "GObject *widget_grab(struct widget *w)\n"
    "{\n"
    "  if (!w->ready)\n"
    "    return NULL;\n"
    "  return g_object_ref(w->obj);\n"
    "}\n"
    "\n"
    "int widget_use(struct widget *w)\n"
    "{\n"
    "  GObject *o = g_object_ref(w->obj);\n"
    "  if (!w->ready)\n"
    "    return -EINVAL;\n"
    "  g_object_unref(o);\n"
    "  return 0;\n"
    "}\n"
    "\n"
    "void widget_drop(struct widget *w)\n"
    "{\n"
    "  GObject *o = w->obj;\n"
    "  g_object_unref(o);\n"
    "  o->flags = 0;\n"
    "}\n";

class CliFlagMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/refscan-cli-test-" + std::to_string(::getpid()) + "-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_ + "/tree/drivers/widget");
    stdfs::create_directories(dir_ + "/tree/lib");
    std::ofstream(dir_ + "/tree/drivers/widget/widget.c") << kGlibDriver;
    std::ofstream(dir_ + "/tree/lib/ok.c") << "int lib_ok(void) { return 0; }\n";
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  // Each tree subcommand with its positional arguments.
  std::vector<std::vector<std::string>> Subcommands() const {
    const std::string tree = dir_ + "/tree";
    return {{"scan", tree},
            {"stats", tree},
            {"demo"},
            {"match", tree, "F_start -> S_P(p0) -> S_D(p0) -> F_end"},
            {"deviations", tree},
            {"summaries", tree}};
  }

  static std::vector<std::string> With(std::vector<std::string> args,
                                       const std::vector<std::string>& flags) {
    args.insert(args.end(), flags.begin(), flags.end());
    return args;
  }

  std::string dir_;
};

TEST_F(CliFlagMatrixTest, DialectChangesEveryTreeSubcommandsOutput) {
  for (const auto& sub : Subcommands()) {
    const CliRun plain = RunCli(sub);
    const CliRun glib = RunCli(With(sub, {"--dialect", "glib"}));
    EXPECT_NE(glib.rc, 64) << sub[0] << ": " << glib.output;
    EXPECT_NE(plain.output, glib.output) << sub[0] << " ignored --dialect";
  }
}

TEST_F(CliFlagMatrixTest, ParserFaultsQuarantineInEveryTreeSubcommand) {
  for (const auto& sub : Subcommands()) {
    const CliRun run = RunCli(With(sub, {"--faults", "parser.parse:file=drivers/*"}));
    // demo maps a degraded scan of its bug corpus to 1; the rest exit 2.
    EXPECT_EQ(run.rc, sub[0] == "demo" ? 1 : 2) << sub[0] << ": " << run.output;
    EXPECT_NE(run.output.find("## Degraded files"), std::string::npos) << sub[0];
    EXPECT_NE(run.output.find("parse failure"), std::string::npos) << sub[0];
  }
}

TEST_F(CliFlagMatrixTest, TraceOutWritesAChromeTraceForEveryTreeSubcommand) {
  for (const auto& sub : Subcommands()) {
    const std::string trace = dir_ + "/" + sub[0] + ".trace.json";
    const CliRun run = RunCli(With(sub, {"--trace-out", trace}));
    EXPECT_NE(run.rc, 64) << sub[0] << ": " << run.output;
    const std::string json = ReadFile(trace);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << sub[0];
    EXPECT_NE(json.find("stage.parse"), std::string::npos) << sub[0];
  }
}

TEST_F(CliFlagMatrixTest, CacheDirFillsTheCacheOrExits64) {
  for (const auto& sub : Subcommands()) {
    const std::string cache = dir_ + "/" + sub[0] + ".cache";
    const CliRun run = RunCli(With(sub, {"--cache-dir", cache}));
    if (sub[0] == "scan" || sub[0] == "stats" || sub[0] == "demo") {
      EXPECT_NE(run.rc, 64) << sub[0] << ": " << run.output;
      EXPECT_TRUE(stdfs::exists(cache) && !stdfs::is_empty(cache)) << sub[0];
    } else {
      // match, deviations and summaries walk in-memory units: no cache.
      EXPECT_EQ(run.rc, 64) << sub[0] << ": " << run.output;
      EXPECT_FALSE(stdfs::exists(cache)) << sub[0];
    }
  }
}

TEST_F(CliFlagMatrixTest, FlagsOutsideTheirSubcommandExit64) {
  const std::string tree = dir_ + "/tree";
  const std::vector<std::vector<std::string>> rejected = {
      {"scan", tree, "--emit", dir_ + "/out"},
      {"scan", tree, "--kernelish", "2"},
      {"stats", tree, "--fix"},
      {"summaries", tree, "--no-cache"},
      {"match", tree, "F_start -> S_P(p0) -> F_end", "--streaming"},
      {"deviations", tree, "--remote", dir_ + "/no.sock"},
      // --remote scans on the daemon, through its own resident store.
      {"scan", tree, "--remote", dir_ + "/no.sock", "--cache-dir", dir_ + "/cache"},
      {"scan", tree, "--remote", dir_ + "/no.sock", "--no-cache"},
      // ...and arms faults only from its own REFSCAN_FAULTS.
      {"stats", tree, "--remote", dir_ + "/no.sock", "--faults", "parser.parse:always"},
      // --poll-ms and --jobs configure serve's --watch loop only.
      {"serve", dir_ + "/serve.sock", "--poll-ms", "5"},
      {"serve", dir_ + "/serve.sock", "--jobs", "2"},
      // Threads are the one way to scan in parallel: there are no worker
      // processes to ask for.
      {"scan", tree, "--workers", "2"},
      {"worker", "--socket", dir_ + "/w.sock", "--id", "0"},
      {"scan", tree, "--jobs", "-1"},  // a number is digits only
  };
  for (const auto& args : rejected) {
    EXPECT_EQ(RunCli(args).rc, 64) << args[0] << " " << args[2];
  }
}

// `cache gc` refuses a directory without objects/, or a missing one, with
// exit 1 (as a scan of a tree without sources) and writes nothing there; a
// directory a scan filled is collected.
TEST_F(CliFlagMatrixTest, CacheGcRefusesADirectoryThatIsNotACache) {
  const std::string sources = dir_ + "/tree/lib";
  const CliRun refused = RunCli({"cache", "gc", sources, "--max-bytes", "0"});
  EXPECT_EQ(refused.rc, 1) << refused.output;
  EXPECT_NE(refused.output.find("not a cache directory"), std::string::npos) << refused.output;
  EXPECT_FALSE(stdfs::exists(sources + "/index.tsv"));
  EXPECT_EQ(RunCli({"cache", "gc", dir_ + "/missing", "--max-bytes", "0"}).rc, 1);
  EXPECT_FALSE(stdfs::exists(dir_ + "/missing"));

  const std::string cache = dir_ + "/cache";
  RunCli({"scan", dir_ + "/tree", "--cache-dir", cache});
  const CliRun gc = RunCli({"cache", "gc", cache, "--max-bytes", "0"});
  EXPECT_EQ(gc.rc, 0) << gc.output;
  EXPECT_NE(gc.output.find("cache gc: kept 0 object(s) / 0 bytes"), std::string::npos)
      << gc.output;
}

// Stage 2.5 summarises every unit at once, in the scanning process:
// --streaming, which drops each unit after stage 1, exits 64 with --ipa.
TEST_F(CliFlagMatrixTest, IpaRejectsStreamingAndWorkers) {
  for (const auto& sub : Subcommands()) {
    if (sub[0] != "scan" && sub[0] != "stats" && sub[0] != "demo") {
      continue;
    }
    for (const std::vector<std::string>& flags :
         {std::vector<std::string>{"--ipa", "--streaming"},
          std::vector<std::string>{"--streaming", "--interprocedural"}}) {
      const CliRun run = RunCli(With(sub, flags));
      EXPECT_EQ(run.rc, 64) << sub[0] << " " << flags[1] << ": " << run.output;
      EXPECT_NE(run.output.find("does not apply with --ipa"), std::string::npos) << sub[0];
    }
    EXPECT_NE(RunCli(With(sub, {"--ipa"})).rc, 64) << sub[0];
  }
}

// The daemon arms faults only from its own REFSCAN_FAULTS, so a spec in the
// client's environment would reach nothing but the loader: next to --remote
// it exits 64 with the message --faults gives. An empty one, and the same
// spec on a local scan, go ahead.
TEST_F(CliFlagMatrixTest, RemoteRejectsAFaultSpecInTheEnvironment) {
  const std::string tree = dir_ + "/tree";
  const std::string sock = dir_ + "/no.sock";
  const CliRun flag = RunCli({"scan", tree, "--remote", sock, "--faults", "parser.parse:always"});
  EXPECT_EQ(flag.rc, 64) << flag.output;
  EXPECT_NE(flag.output.find("--faults does not apply with --remote"), std::string::npos)
      << flag.output;
  for (const std::string sub : {"scan", "stats", "demo"}) {
    std::vector<std::string> args = {sub};
    if (sub != "demo") {
      args.push_back(tree);
    }
    const CliRun env =
        RunCli(With(args, {"--remote", sock}), "REFSCAN_FAULTS='parser.parse:always'");
    EXPECT_EQ(env.rc, 64) << sub << ": " << env.output;
    EXPECT_NE(env.output.find("REFSCAN_FAULTS does not apply with --remote"), std::string::npos)
        << sub << ": " << env.output;
  }
  // Empty, it arms nothing: the unreachable daemon falls back to a local
  // scan that exits as an unfaulted one.
  const int clean_rc = RunCli({"scan", tree}).rc;
  EXPECT_NE(clean_rc, 2);
  EXPECT_EQ(RunCli({"scan", tree, "--remote", sock}, "REFSCAN_FAULTS=''").rc, clean_rc);
  EXPECT_EQ(RunCli({"scan", tree}, "REFSCAN_FAULTS='parser.parse:always'").rc, 2);
}

// main arms REFSCAN_FAULTS before any subcommand runs, and --faults would
// replace that plan: the two together exit 64 in every tree subcommand, so
// neither spec is silently dropped. An empty REFSCAN_FAULTS arms nothing.
TEST_F(CliFlagMatrixTest, FaultsRejectsAFaultSpecInTheEnvironment) {
  for (const std::vector<std::string>& sub : Subcommands()) {
    const CliRun both = RunCli(With(sub, {"--faults", "checker.run:always"}),
                               "REFSCAN_FAULTS='parser.parse:always'");
    EXPECT_EQ(both.rc, 64) << sub[0] << ": " << both.output;
    EXPECT_NE(both.output.find("--faults does not apply with REFSCAN_FAULTS"), std::string::npos)
        << sub[0] << ": " << both.output;
  }
  const CliRun empty =
      RunCli({"scan", dir_ + "/tree", "--faults", "checker.run:always"}, "REFSCAN_FAULTS=''");
  EXPECT_EQ(empty.rc, 2) << empty.output;
}

// `match` checks each file inside stage 3's sandbox, like `scan`: an
// injected `checker.run` fault and an overrun deadline quarantine the file
// at stage check (exit 2) instead of passing its matches through.
TEST_F(CliFlagMatrixTest, MatchQuarantinesAFaultedOrOverdueFileAtStageCheck) {
  const CliRun faulted = RunCli({"match", dir_ + "/tree", "F_start -> S_G(p0) -> !S_P(p0) -> F_end",
                                 "--faults", "checker.run:always"});
  EXPECT_EQ(faulted.rc, 2) << faulted.output;
  EXPECT_NE(faulted.output.find("drivers/widget/widget.c: check failure"), std::string::npos)
      << faulted.output;

  // One function whose 300 objects are each dereferenced once: under
  // `S_D -> S_D(p0) -> F_end` that is 44,850 matches and far more than 50
  // ms of walks.
  stdfs::create_directories(dir_ + "/many");
  std::ofstream many(dir_ + "/many/many.c");
  many << "int many(";
  for (int i = 0; i < 300; ++i) {
    many << (i == 0 ? "" : ", ") << "struct s *p" << i;
  }
  many << ")\n{\n";
  for (int i = 0; i < 300; ++i) {
    many << "\tuse(p" << i << "->x);\n";
  }
  many << "\treturn 0;\n}\n";
  many.close();
  const CliRun overdue = RunCli({"match", dir_ + "/many", "S_D -> S_D(p0) -> F_end",
                                 "--file-timeout-ms", "50", "--jobs", "1"});
  EXPECT_EQ(overdue.rc, 2) << overdue.output;
  EXPECT_NE(overdue.output.find("many.c: check failure (resource-limit)"), std::string::npos)
      << overdue.output;
}

// `match` walks the CFG with the index of the next template step as its
// state, which holds fewer than 64 values: a longer template is unparsable.
TEST_F(CliFlagMatrixTest, MatchRejectsATemplateLongerThanItsWalkEncodes) {
  std::string tmpl = "F_start";
  for (int i = 2; i < 64; ++i) {
    tmpl += " -> S_D(p0)";
  }
  tmpl += " -> F_end";  // 64 steps
  const CliRun run = RunCli({"match", dir_ + "/tree", tmpl});
  EXPECT_EQ(run.rc, 64) << run.output;
  EXPECT_NE(run.output.find("cannot parse template"), std::string::npos);
}

}  // namespace
