// Failpoint harness + fault matrix: every injected fault must surface as a
// clean Status (never a crash, never a torn output file), and atomic writes
// must leave either the complete new content or nothing at the target path.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "log/binary_log.h"
#include "log/reader.h"
#include "log/writer.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/mapped_file.h"

namespace procmine {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return "";
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    dir_ = ::testing::TempDir() + "/failpoint_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    // Recreate from scratch: files from a previous run of the same binary
    // would defeat the no-torn-artifact assertions.
    std::string mkdir = "rm -rf " + dir_ + " && mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  std::string dir_;
};

EventLog DemoLog() {
  return LogReader::ParseText(
             "e1 A START 0\ne1 A END 1\ne1 B START 2\ne1 B END 3 7\n"
             "e2 A START 0\ne2 A END 2\ne2 B START 3\ne2 B END 4\n")
      .ValueOrDie();
}

TEST_F(FailpointTest, InertSiteFiresNothing) {
  EXPECT_FALSE(PROCMINE_FAILPOINT("no.such.site"));
}

TEST_F(FailpointTest, ErrorActionMapsToIOError) {
  failpoint::Activate("atomic_write.write", failpoint::Action::kError);
  std::string path = dir_ + "/out.txt";
  Status st = WriteFileAtomic(path, "payload");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("atomic_write.write"), std::string::npos);
  // No torn output: neither the target nor the temp file survives.
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FailpointTest, ShortWritesStillProduceFullContent) {
  // kShortIO with arg=3 forces 3-byte write() chunks; the retry loop must
  // still assemble the exact content.
  failpoint::Activate("atomic_write.write", failpoint::Action::kShortIO, 3);
  std::string path = dir_ + "/short.txt";
  std::string content(1000, 'x');
  content += "tail";
  ASSERT_TRUE(WriteFileAtomic(path, content).ok());
  EXPECT_EQ(ReadFileOrEmpty(path), content);
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FailpointTest, EintrIsRetriedToCompletion) {
  // Count-limited EINTR: the first 5 write attempts are interrupted, then
  // the syscall goes through. The site must retry, not fail.
  failpoint::Injection injection;
  injection.action = failpoint::Action::kEintr;
  injection.count = 5;
  failpoint::Activate("atomic_write.write", injection);
  std::string path = dir_ + "/eintr.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "interrupted but delivered").ok());
  EXPECT_EQ(ReadFileOrEmpty(path), "interrupted but delivered");
}

TEST_F(FailpointTest, RenameFaultPreservesPreviousFile) {
  std::string path = dir_ + "/kept.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "old content").ok());
  failpoint::Activate("atomic_write.rename", failpoint::Action::kError);
  Status st = WriteFileAtomic(path, "new content");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  // Atomicity contract: the old file is intact, the temp file is gone.
  EXPECT_EQ(ReadFileOrEmpty(path), "old content");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FailpointTest, FsyncAndOpenFaultsPropagate) {
  for (const char* site : {"atomic_write.open", "atomic_write.fsync"}) {
    failpoint::DeactivateAll();
    failpoint::Activate(site, failpoint::Action::kError);
    Status st = WriteFileAtomic(dir_ + "/x.txt", "y");
    EXPECT_EQ(st.code(), StatusCode::kIOError) << site;
    EXPECT_NE(st.message().find(site), std::string::npos) << site;
    EXPECT_FALSE(FileExists(dir_ + "/x.txt")) << site;
  }
}

TEST_F(FailpointTest, MappedFileFaultsFailReads) {
  std::string path = dir_ + "/in.log";
  ASSERT_TRUE(LogWriter::WriteFile(DemoLog(), path).ok());
  std::string content = ReadFileOrEmpty(path);

  failpoint::Activate("mapped_file.open", failpoint::Action::kError);
  EXPECT_FALSE(LogReader::ReadFile(path).ok());
  failpoint::DeactivateAll();

  // The alloc and read sites live on the buffered fallback path.
  failpoint::Activate("mapped_file.alloc", failpoint::Action::kAllocFail);
  EXPECT_FALSE(MappedFile::OpenBuffered(path).ok());
  failpoint::DeactivateAll();

  // Short reads and EINTR must still deliver the complete file.
  failpoint::Activate("mapped_file.read", failpoint::Action::kShortIO, 3);
  auto short_read = MappedFile::OpenBuffered(path);
  ASSERT_TRUE(short_read.ok()) << short_read.status().ToString();
  EXPECT_EQ(short_read->data(), content);
  failpoint::DeactivateAll();

  failpoint::Injection eintr;
  eintr.action = failpoint::Action::kEintr;
  eintr.count = 3;
  failpoint::Activate("mapped_file.read", eintr);
  auto interrupted = MappedFile::OpenBuffered(path);
  ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
  EXPECT_EQ(interrupted->data(), content);
  failpoint::DeactivateAll();

  // With no faults armed the same path reads fine (the binary is not
  // poisoned by earlier injections).
  EXPECT_TRUE(LogReader::ReadFile(path).ok());
}

TEST_F(FailpointTest, WriterFaultsLeaveNoTornArtifacts) {
  EventLog log = DemoLog();
  struct Case {
    const char* site;
    std::string path;
    Status (*write)(const EventLog&, const std::string&);
  };
  const Case cases[] = {
      {"log_writer.write", dir_ + "/t.log",
       [](const EventLog& l, const std::string& p) {
         return LogWriter::WriteFile(l, p);
       }},
      {"binary_log.write", dir_ + "/t.bin",
       [](const EventLog& l, const std::string& p) {
         return WriteBinaryLogFile(l, p);
       }},
  };
  for (const Case& c : cases) {
    failpoint::DeactivateAll();
    failpoint::Activate(c.site, failpoint::Action::kError);
    Status st = c.write(log, c.path);
    EXPECT_EQ(st.code(), StatusCode::kIOError) << c.site;
    EXPECT_FALSE(FileExists(c.path)) << c.site;
    EXPECT_FALSE(FileExists(c.path + ".tmp")) << c.site;
    failpoint::DeactivateAll();
    // The same write succeeds once disarmed, and round-trips.
    ASSERT_TRUE(c.write(log, c.path).ok()) << c.site;
    EXPECT_TRUE(FileExists(c.path)) << c.site;
  }
}

TEST_F(FailpointTest, SkipAndCountWindowTheInjection) {
  // skip=1, count=1: the first hit passes, the second fires, the third
  // passes again.
  failpoint::Injection injection;
  injection.action = failpoint::Action::kError;
  injection.skip = 1;
  injection.count = 1;
  failpoint::Activate("atomic_write.open", injection);
  std::string path = dir_ + "/windowed.txt";
  EXPECT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_FALSE(WriteFileAtomic(path, "second").ok());
  EXPECT_TRUE(WriteFileAtomic(path, "third").ok());
  EXPECT_EQ(ReadFileOrEmpty(path), "third");
}

TEST_F(FailpointTest, HitCountsRecordEvaluations) {
  failpoint::Activate("atomic_write.open", failpoint::Action::kError);
  EXPECT_EQ(failpoint::HitCount("atomic_write.open"), 0);
  (void)WriteFileAtomic(dir_ + "/h.txt", "x");
  EXPECT_EQ(failpoint::HitCount("atomic_write.open"), 1);
}

TEST_F(FailpointTest, ActivateFromEnvParsesFullSyntax) {
  // site=action:arg@skip#count — arm a short-write with 2-byte chunks that
  // skips the first hit. The skipped first call writes normally; the second
  // exercises the short-IO path but still must produce full content.
  ASSERT_EQ(setenv("PROCMINE_FAILPOINTS",
                   "atomic_write.write=short:2@1#4, bogus-entry,"
                   "nosuchaction=frobnicate",
                   1),
            0);
  EXPECT_EQ(failpoint::ActivateFromEnv(), 1);
  unsetenv("PROCMINE_FAILPOINTS");
  std::string path = dir_ + "/env.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "abcdefgh").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "12345678").ok());
  EXPECT_EQ(ReadFileOrEmpty(path), "12345678");
}

}  // namespace
}  // namespace procmine
