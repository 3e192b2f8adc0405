#include "state/index_file.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "state/file_io.h"

namespace somr::state {
namespace {

namespace fs = std::filesystem;

class IndexFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/somr-indexfile-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/rows.idx";
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  std::string Read() {
    StatusOr<std::string> content = ReadFileToString(path_);
    EXPECT_TRUE(content.ok());
    return content.ok() ? *content : std::string();
  }

  void Write(const std::string& content) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << content;
  }

  // The rows Load() replays, as "text" for base rows and "+text" for
  // block rows.
  std::vector<std::string> Replay(IndexFile* file) {
    IndexFile::Contents contents;
    Status status = file->Load(&contents);
    EXPECT_TRUE(status.ok()) << status.ToString();
    std::vector<std::string> rows;
    for (const IndexFile::Row& row : contents.rows()) {
      rows.push_back((row.in_block ? "+" : "") + std::string(row.text));
    }
    return rows;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(IndexFileTest, BaseThenBlocksReplayInOrder) {
  {
    IndexFile file(path_);
    EXPECT_TRUE(file.RewriteDue(""));  // never written: create
    ASSERT_TRUE(file.Rewrite("# test v1", "a 1\nb 1\nc 1\n").ok());
    ASSERT_FALSE(file.RewriteDue("b 2\n"));
    ASSERT_TRUE(file.Append("b 2\n").ok());
    ASSERT_TRUE(file.Append("c 2\n").ok());
    EXPECT_EQ(file.stats().base_bytes,
              std::string("# test v1 base=12\na 1\nb 1\nc 1\n").size());
    EXPECT_GT(file.stats().block_bytes, 0u);
  }
  IndexFile file(path_);
  IndexFile::Contents contents;
  ASSERT_TRUE(file.Load(&contents).ok());
  EXPECT_EQ(contents.header(), "# test v1");
  ASSERT_EQ(contents.rows().size(), 5u);
  EXPECT_EQ(contents.rows()[3].text, "b 2");
  EXPECT_TRUE(contents.rows()[3].in_block);
  EXPECT_FALSE(contents.rows()[2].in_block);
  // Lines count the block headers: "b 2" sits on line 6.
  EXPECT_EQ(contents.rows()[3].line, 6u);
  Status located =
      contents.Locate(contents.rows()[3], Status::ParseError("bad row"));
  EXPECT_EQ(located.code(), StatusCode::kParseError);
  EXPECT_EQ(located.message(), path_ + ":6: bad row");
}

TEST_F(IndexFileTest, TornOrCorruptLastBlockLandsOnPreviousCommit) {
  uint64_t before = 0;
  {
    IndexFile file(path_);
    ASSERT_TRUE(file.Rewrite("# test v1", "a 1\n").ok());
    ASSERT_TRUE(file.Append("a 2\n").ok());
    before = fs::file_size(path_);
    ASSERT_TRUE(file.Append("a 3\nb 3\n").ok());
  }
  const std::string full = Read();
  const std::vector<std::string> previous = {"a 1", "+a 2"};
  for (size_t cut = before; cut < full.size(); ++cut) {
    Write(full.substr(0, cut));
    IndexFile file(path_);
    EXPECT_EQ(Replay(&file), previous) << "cut at " << cut;
    EXPECT_EQ(fs::file_size(path_), before) << "cut at " << cut;
  }
  for (size_t at = before; at < full.size(); ++at) {
    std::string flipped = full;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    Write(flipped);
    IndexFile file(path_);
    EXPECT_EQ(Replay(&file), previous) << "flip at " << at;
    EXPECT_EQ(fs::file_size(path_), before) << "flip at " << at;
    // The truncated file takes the next commit where the bad block was.
    ASSERT_TRUE(file.Append("c 4\n").ok());
    IndexFile again(path_);
    EXPECT_EQ(Replay(&again),
              (std::vector<std::string>{"a 1", "+a 2", "+c 4"}));
  }
}

TEST_F(IndexFileTest, BlocksOutgrowingTheBaseTriggerARewrite) {
  IndexFile file(path_);
  const std::string base(200, 'r');
  ASSERT_TRUE(file.Rewrite("# test v1", base + "\n").ok());
  const uint64_t base_bytes = file.stats().base_bytes;
  int appended = 0;
  while (!file.RewriteDue("row\n")) {
    ASSERT_TRUE(file.Append("row\n").ok());
    ++appended;
  }
  EXPECT_GT(appended, 0);
  // Due exactly when the next block would take the blocks past the base.
  EXPECT_LE(file.stats().block_bytes, base_bytes);
  ASSERT_TRUE(file.Rewrite("# test v1", base + "\nrow\n").ok());
  EXPECT_EQ(file.stats().block_bytes, 0u);
  EXPECT_FALSE(file.RewriteDue("row\n"));
}

TEST_F(IndexFileTest, FailedAppendIsCutOffBeforeTheNext) {
  IndexFile file(path_);
  ASSERT_TRUE(file.Rewrite("# test v1", "a 1\n").ok());
  const uint64_t committed = fs::file_size(path_);
  ArmIoFaults(1, IoFault::kShortWrite);  // the block's pwrite tears
  EXPECT_FALSE(file.Append("a 2 with a longer row than the next\n").ok());
  DisarmIoFaults();
  EXPECT_GT(fs::file_size(path_), committed);  // torn bytes on disk
  // Cutting off the torn bytes, then the block is written whole and its
  // fdatasync fails.
  ArmIoFaults(3);
  EXPECT_FALSE(file.Append("a 3\n").ok());
  DisarmIoFaults();
  ASSERT_TRUE(file.Append("a 4\n").ok());
  IndexFile reopened(path_);
  EXPECT_EQ(Replay(&reopened), (std::vector<std::string>{"a 1", "+a 4"}));
}

TEST_F(IndexFileTest, BlockMustBeWholeRows) {
  IndexFile file(path_);
  ASSERT_TRUE(file.Rewrite("# test v1", "").ok());
  EXPECT_EQ(file.Append("no newline").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(file.Append("").code(), StatusCode::kInvalidArgument);
}

TEST_F(IndexFileTest, MissingFileIsNotFoundAndBadBaseIsParseError) {
  IndexFile missing(dir_ + "/absent.idx");
  IndexFile::Contents contents;
  EXPECT_EQ(missing.Load(&contents).code(), StatusCode::kNotFound);
  // A base longer than the file, and a header with no base at all.
  for (const char* content : {"# test v1 base=999\nshort\n",
                              "# test v1\nx 1\ny 1\n"}) {
    Write(content);
    IndexFile file(path_);
    IndexFile::Contents bad;
    EXPECT_EQ(file.Load(&bad).code(), StatusCode::kParseError) << content;
  }
}

TEST_F(IndexFileTest, RewriteFailureKeepsTheRewriteDue) {
  IndexFile file(path_);
  ASSERT_TRUE(file.Rewrite("# test v1", "a 1\n").ok());
  // AtomicWriteDurable: pwrite, fsync, rename, then the directory fsync;
  // the last fails after the new file is already in place.
  ArmIoFaults(4);
  EXPECT_FALSE(file.Rewrite("# test v1", "a 2\n").ok());
  DisarmIoFaults();
  EXPECT_TRUE(file.RewriteDue("a 3\n"));
  ASSERT_TRUE(file.Rewrite("# test v1", "a 3\n").ok());
  IndexFile reopened(path_);
  EXPECT_EQ(Replay(&reopened), (std::vector<std::string>{"a 3"}));
}

}  // namespace
}  // namespace somr::state
