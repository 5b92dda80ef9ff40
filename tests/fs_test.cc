// LoadSourceTreeFromDisk tests: filtering (extensions, skipped directories,
// the 4 MiB size cap), error reporting for unreadable inputs (a real EIO
// included), and the parallel-read determinism guarantee (identical tree at
// every `jobs`).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/support/faultinject.h"
#include "src/support/fs.h"

namespace refscan {
namespace {

namespace stdfs = std::filesystem;

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (stdfs::temp_directory_path() /
             (std::string("refscan_fs_test_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    stdfs::remove_all(root_);
    stdfs::create_directories(root_);
  }
  void TearDown() override {
    // Restore permissions so remove_all can do its job.
    std::error_code ec;
    for (const auto& entry : stdfs::recursive_directory_iterator(root_, ec)) {
      stdfs::permissions(entry.path(), stdfs::perms::owner_all, stdfs::perm_options::add, ec);
    }
    stdfs::remove_all(root_, ec);
  }

  void WriteFile(const std::string& relative, const std::string& text) {
    const stdfs::path target = stdfs::path(root_) / relative;
    stdfs::create_directories(target.parent_path());
    std::ofstream out(target, std::ios::binary);
    out << text;
  }

  std::string root_;
};

TEST_F(FsTest, LoadsOnlyMatchingExtensionsKeyedByRelativePath) {
  WriteFile("drivers/gpu/a.c", "int a;\n");
  WriteFile("include/b.h", "int b;\n");
  WriteFile("README.md", "not C\n");
  WriteFile("drivers/gpu/notes.txt", "not C either\n");

  const SourceTree tree = LoadSourceTreeFromDisk(root_);
  EXPECT_EQ(tree.size(), 2u);
  ASSERT_NE(tree.Find("drivers/gpu/a.c"), nullptr);
  EXPECT_EQ(tree.Find("drivers/gpu/a.c")->text(), "int a;\n");
  EXPECT_NE(tree.Find("include/b.h"), nullptr);
  EXPECT_EQ(tree.Find("README.md"), nullptr);
}

std::vector<std::string> Keys(const SourceTree& tree) {
  std::vector<std::string> keys;
  for (const auto& [path, file] : tree.files()) {
    keys.push_back(path);
  }
  return keys;
}

TEST_F(FsTest, RootSpellingsYieldTheSameKeys) {
  WriteFile("drivers/gpu/a.c", "int a;\n");
  WriteFile("include/b.h", "int b;\n");
  const std::vector<std::string> want = {"drivers/gpu/a.c", "include/b.h"};
  EXPECT_EQ(Keys(LoadSourceTreeFromDisk(root_)), want);
  EXPECT_EQ(Keys(LoadSourceTreeFromDisk(root_ + "/")), want);

  // A ./-relative root, resolved from the root's parent directory.
  const stdfs::path cwd = stdfs::current_path();
  stdfs::current_path(stdfs::path(root_).parent_path());
  const SourceTree relative =
      LoadSourceTreeFromDisk("./" + stdfs::path(root_).filename().string());
  stdfs::current_path(cwd);
  EXPECT_EQ(Keys(relative), want);

  // A root reached through a symlinked directory.
  const std::string link = root_ + "_link";
  stdfs::remove(link);
  stdfs::create_directory_symlink(root_, link);
  const SourceTree through_link = LoadSourceTreeFromDisk(link);
  stdfs::remove(link);
  EXPECT_EQ(Keys(through_link), want);
}

TEST_F(FsTest, SymlinkInsideTheTreeIsKeyedByItsTreePath) {
  WriteFile("drivers/real.c", "int real;\n");
  const std::string outside = root_ + "_outside.c";
  {
    std::ofstream out(outside, std::ios::binary);
    out << "int outside;\n";
  }
  stdfs::create_symlink("real.c", stdfs::path(root_) / "drivers" / "alias.c");
  stdfs::create_symlink(outside, stdfs::path(root_) / "drivers" / "external.c");

  const SourceTree tree = LoadSourceTreeFromDisk(root_);
  stdfs::remove(outside);
  EXPECT_EQ(Keys(tree),
            (std::vector<std::string>{"drivers/alias.c", "drivers/external.c", "drivers/real.c"}));
  ASSERT_NE(tree.Find("drivers/alias.c"), nullptr);
  EXPECT_EQ(tree.Find("drivers/alias.c")->text(), "int real;\n");
  ASSERT_NE(tree.Find("drivers/external.c"), nullptr);
  EXPECT_EQ(tree.Find("drivers/external.c")->text(), "int outside;\n");
}

TEST_F(FsTest, SkipDirsPruneWholeSubtreesAtAnyDepth) {
  WriteFile("drivers/a.c", "int a;\n");
  WriteFile(".git/objects/deep/fake.c", "int git;\n");
  WriteFile("drivers/build/gen.c", "int gen;\n");
  WriteFile("Documentation/example.c", "int doc;\n");

  const SourceTree tree = LoadSourceTreeFromDisk(root_);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_NE(tree.Find("drivers/a.c"), nullptr);
}

TEST_F(FsTest, MaxFileBytesFiltersLargeFiles) {
  // The cap is 4 MiB, inclusive.
  constexpr size_t kCap = 4 * 1024 * 1024;
  WriteFile("small.c", "int s;\n");
  WriteFile("exact.c", std::string(kCap, 'x'));
  WriteFile("large.c", std::string(kCap + 1, 'x'));

  std::vector<LoadFailure> failures;
  const SourceTree tree = LoadSourceTreeFromDisk(root_, LoadOptions{}, &failures);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_NE(tree.Find("small.c"), nullptr);
  ASSERT_NE(tree.Find("exact.c"), nullptr);
  EXPECT_EQ(tree.Find("exact.c")->text().size(), kCap);
  // The capped file is listed, not dropped without a word.
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].path, "large.c");
  EXPECT_EQ(failures[0].what, "size 4194305 exceeds the loader's 4194304-byte cap");
  EXPECT_TRUE(failures[0].over_cap);
}

TEST_F(FsTest, ParallelAndSerialLoadsAreIdentical) {
  // Enough files (with varied sizes, including empty) that the parallel
  // path actually fans out.
  for (int i = 0; i < 40; ++i) {
    WriteFile("dir" + std::to_string(i % 5) + "/f" + std::to_string(i) + ".c",
              std::string(static_cast<size_t>(i) * 97, 'a' + static_cast<char>(i % 26)));
  }

  LoadOptions serial;
  serial.jobs = 1;
  LoadOptions wide;
  wide.jobs = 8;
  const SourceTree a = LoadSourceTreeFromDisk(root_, serial);
  const SourceTree b = LoadSourceTreeFromDisk(root_, wide);
  ASSERT_EQ(a.size(), 40u);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [path, file] : a.files()) {
    const SourceFile* other = b.Find(path);
    ASSERT_NE(other, nullptr) << path;
    EXPECT_EQ(file.text(), other->text()) << path;
  }
}

TEST_F(FsTest, MissingRootReportsAnError) {
  std::vector<LoadFailure> failures;
  const SourceTree tree =
      LoadSourceTreeFromDisk(root_ + "/does/not/exist", LoadOptions{}, &failures);
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].what.find("does not exist"), std::string::npos);
}

TEST_F(FsTest, UnreadableFileYieldsStructuredLoadFailure) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root reads chmod-000 files; permission test is meaningless";
  }
  WriteFile("ok.c", "int ok;\n");
  WriteFile("secret.c", "int secret;\n");
  stdfs::permissions(stdfs::path(root_) / "secret.c", stdfs::perms::none);

  std::vector<LoadFailure> failures;
  const SourceTree tree = LoadSourceTreeFromDisk(root_, LoadOptions{}, &failures);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_NE(tree.Find("ok.c"), nullptr);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].path, "secret.c");  // tree-relative key, not the OS path
  EXPECT_EQ(failures[0].what, "unreadable");
}

// /proc/self/mem opens for any process, root included, and fails a read at
// offset 0 with EIO (page 0 is never mapped): an I/O error the chmod test
// above cannot produce as root. The file is read once, listed, and skipped.
TEST_F(FsTest, ReadErrorYieldsOneLoadFailureAndTheRestLoads) {
  WriteFile("a.c", "int a;\n");
  WriteFile("z.c", "int z;\n");
  stdfs::create_symlink("/proc/self/mem", stdfs::path(root_) / "eio.c");

  for (const size_t jobs : {size_t{1}, size_t{4}}) {
    LoadOptions options;
    options.jobs = jobs;
    std::vector<LoadFailure> failures;
    const SourceTree tree = LoadSourceTreeFromDisk(root_, options, &failures);
    EXPECT_EQ(Keys(tree), (std::vector<std::string>{"a.c", "z.c"}));
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].path, "eio.c");
    EXPECT_EQ(failures[0].what, "unreadable");
    EXPECT_FALSE(failures[0].over_cap);
  }
}

TEST_F(FsTest, InjectedReadFaultQuarantinesOnlyTheMatchingFile) {
  WriteFile("good.c", "int good;\n");
  WriteFile("flaky.c", "int flaky;\n");

  ScopedFaultArm arm(std::string_view("fs.read:file=flaky.c"));
  std::vector<LoadFailure> failures;
  const SourceTree tree = LoadSourceTreeFromDisk(root_, LoadOptions{}, &failures);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_NE(tree.Find("good.c"), nullptr);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].path, "flaky.c");
  EXPECT_NE(failures[0].what.find("injected fault"), std::string::npos);
}

TEST_F(FsTest, EmptyFileLoadsAsEmptyText) {
  WriteFile("empty.c", "");
  const SourceTree tree = LoadSourceTreeFromDisk(root_);
  ASSERT_NE(tree.Find("empty.c"), nullptr);
  EXPECT_EQ(tree.Find("empty.c")->text(), "");
}

}  // namespace
}  // namespace refscan
