// The streaming mining server: wire framing, journal durability, session
// fault isolation, multi-tenant determinism, and crash recovery.
//
// The headline invariants (ISSUE acceptance criteria):
//   * N sessions fed interleaved batches across threads produce models
//     byte-identical to each session mined alone, for every thread count
//     and chunking.
//   * A journal replay after an unclean shutdown reproduces the model
//     byte-identically, torn tails included.
//   * A hostile client (garbage frames) never disturbs a concurrent
//     healthy session.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "log/binary_log.h"
#include "log/event_log.h"
#include "obs/registry.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace procmine::serve {
namespace {

std::string BatchBytes(const std::vector<std::string>& compact) {
  return EncodeBinaryLog(EventLog::FromCompactStrings(compact));
}

/// Mines `compact` alone, in one Session, and returns the canonical model
/// text — the byte-identity reference for every multiplexed run.
std::string SoloModel(const std::vector<std::string>& compact,
                      const SessionSpec& spec = {}) {
  Session session("solo", spec);
  BatchOutcome outcome = session.ApplyBatch(BatchBytes(compact));
  EXPECT_EQ(outcome.code, ResponseCode::kOk);
  auto text = session.CanonicalModelText();
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : std::string();
}

RequestFrame MakeRequest(FrameType type, std::string session,
                         std::string body = {}, uint64_t seq = 1) {
  RequestFrame request;
  request.type = type;
  request.seq = seq;
  request.session = std::move(session);
  request.body = std::move(body);
  return request;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    dir_ = ::testing::TempDir() + "/serve_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str()),
              0);
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Wire protocol

TEST(ServeWireTest, RequestRoundTrip) {
  RequestFrame request =
      MakeRequest(FrameType::kBatch, "tenant-1", "payload\x00\xff bytes", 42);
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, request.type);
  EXPECT_EQ(decoded->seq, request.seq);
  EXPECT_EQ(decoded->session, request.session);
  EXPECT_EQ(decoded->body, request.body);
}

TEST(ServeWireTest, ResponseRoundTrip) {
  ResponseFrame response;
  response.code = ResponseCode::kDegraded;
  response.seq = 7;
  response.applied_executions = 3;
  response.session_executions = 40;
  response.detail = "budget";
  response.degraded = true;
  response.resource = BudgetResource::kExecutions;
  response.cut_phase = "incremental.absorb";
  response.dropped = "2 of 5";
  response.body = "A\tB\n";
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, response.code);
  EXPECT_EQ(decoded->seq, response.seq);
  EXPECT_EQ(decoded->applied_executions, response.applied_executions);
  EXPECT_EQ(decoded->session_executions, response.session_executions);
  EXPECT_EQ(decoded->detail, response.detail);
  EXPECT_TRUE(decoded->degraded);
  EXPECT_EQ(decoded->resource, response.resource);
  EXPECT_EQ(decoded->cut_phase, response.cut_phase);
  EXPECT_EQ(decoded->dropped, response.dropped);
  EXPECT_EQ(decoded->body, response.body);
}

TEST(ServeWireTest, SessionSpecRoundTrip) {
  SessionSpec spec;
  spec.noise_threshold = 4;
  spec.limits.deadline_ms = 1234;
  spec.limits.max_memory_bytes = 77 << 20;
  spec.limits.max_executions = 99;
  spec.recovery = RecoveryPolicy::kSkip;
  auto decoded = DecodeSessionSpec(EncodeSessionSpec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->noise_threshold, spec.noise_threshold);
  EXPECT_EQ(decoded->limits.deadline_ms, spec.limits.deadline_ms);
  EXPECT_EQ(decoded->limits.max_memory_bytes, spec.limits.max_memory_bytes);
  EXPECT_EQ(decoded->limits.max_executions, spec.limits.max_executions);
  EXPECT_EQ(decoded->recovery, spec.recovery);
}

TEST(ServeWireTest, SessionNameValidation) {
  EXPECT_TRUE(ValidSessionName("tenant-1"));
  EXPECT_TRUE(ValidSessionName("a.b_c-D9"));
  EXPECT_FALSE(ValidSessionName(""));
  EXPECT_FALSE(ValidSessionName(".hidden"));
  EXPECT_FALSE(ValidSessionName("../escape"));
  EXPECT_FALSE(ValidSessionName("has space"));
  EXPECT_FALSE(ValidSessionName("has/slash"));
  EXPECT_FALSE(ValidSessionName(std::string(129, 'x')));
}

TEST(ServeWireTest, FrameRoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload = "the payload \x01\x02 with binary";
  ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
  auto read = ReadFrame(fds[0], kDefaultMaxFrameBytes);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  ::close(fds[1]);
  // A cleanly closed peer between frames is NotFound, not corruption.
  auto eof = ReadFrame(fds[0], kDefaultMaxFrameBytes);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fds[0]);
}

TEST(ServeWireTest, TornAndCorruptFramesAreDataLoss) {
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string frame;
    PutFixed32(&frame, 100);  // declares 100 payload bytes
    frame += "short";
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ::close(fds[1]);
    auto read = ReadFrame(fds[0], kDefaultMaxFrameBytes);
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(read.status().message().find("frame_truncated"),
              std::string::npos);
    ::close(fds[0]);
  }
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string payload = "payload";
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
    frame += payload;
    PutFixed32(&frame, Crc32c(payload) ^ 1);  // flipped checksum bit
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ::close(fds[1]);
    auto read = ReadFrame(fds[0], kDefaultMaxFrameBytes);
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(read.status().message().find("frame_checksum"),
              std::string::npos);
    ::close(fds[0]);
  }
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string frame;
    PutFixed32(&frame, 0x7fffffffu);  // 2 GiB declaration, tiny cap
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    auto read = ReadFrame(fds[0], /*max_payload_bytes=*/1024);
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(read.status().message().find("frame_oversize"),
              std::string::npos);
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

// ---------------------------------------------------------------------------
// Journal

TEST_F(ServeTest, JournalRoundTrip) {
  std::string path = JournalPathFor(dir_, "alpha");
  SessionSpec spec;
  spec.noise_threshold = 2;
  {
    auto journal = SessionJournal::Create(path, "alpha", spec,
                                          /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(journal
                    ->AppendBatch(BatchBytes({"ABCE"}), /*applied=*/1,
                                  /*degraded=*/false, BudgetResource::kNone)
                    .ok());
    ASSERT_TRUE(journal
                    ->AppendBatch(BatchBytes({"ACBE", "ABCE"}), /*applied=*/1,
                                  /*degraded=*/true,
                                  BudgetResource::kExecutions)
                    .ok());
  }
  std::string seen_session;
  std::vector<JournalRecord> records;
  std::vector<std::string> batches;
  auto summary = ReplayJournal(
      path,
      [&](const std::string& session, const SessionSpec& replayed) {
        seen_session = session;
        EXPECT_EQ(replayed.noise_threshold, 2);
        return Status::OK();
      },
      [&](const JournalRecord& record) {
        records.push_back(record);
        batches.emplace_back(record.batch);
        return Status::OK();
      });
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(seen_session, "alpha");
  EXPECT_EQ(summary->records, 2);
  EXPECT_FALSE(summary->sealed);
  EXPECT_FALSE(summary->torn_tail);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].applied, 1);
  EXPECT_FALSE(records[0].degraded);
  EXPECT_EQ(batches[0], BatchBytes({"ABCE"}));
  EXPECT_EQ(records[1].applied, 1);
  EXPECT_TRUE(records[1].degraded);
  EXPECT_EQ(records[1].resource, BudgetResource::kExecutions);
  EXPECT_EQ(batches[1], BatchBytes({"ACBE", "ABCE"}));
}

TEST_F(ServeTest, JournalTornTailIsTruncatedOnResume) {
  std::string path = JournalPathFor(dir_, "torn");
  {
    auto journal = SessionJournal::Create(path, "torn", SessionSpec{},
                                          /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal
                    ->AppendBatch(BatchBytes({"AB"}), 1, false,
                                  BudgetResource::kNone)
                    .ok());
  }
  {
    // Simulate a crash mid-append: half a record header at the tail.
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn.write("\x40\x00", 2);
  }
  int64_t replayed = 0;
  auto summary = ReplayJournal(
      path, [](const std::string&, const SessionSpec&) { return Status::OK(); },
      [&](const JournalRecord&) {
        ++replayed;
        return Status::OK();
      });
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(replayed, 1);
  EXPECT_TRUE(summary->torn_tail);
  EXPECT_EQ(summary->dropped_bytes, 2);
  EXPECT_EQ(summary->error_class, "journal_torn_tail");

  // Resume truncates the torn bytes; the next append must land on a record
  // boundary and replay clean.
  auto resumed = SessionJournal::Resume(path, summary->good_bytes,
                                        /*fsync_appends=*/false);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(
      resumed->AppendBatch(BatchBytes({"ABC"}), 1, false, BudgetResource::kNone)
          .ok());
  ASSERT_TRUE(resumed->Seal().ok());
  auto again = ReplayJournal(
      path, [](const std::string&, const SessionSpec&) { return Status::OK(); },
      [](const JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records, 2);
  EXPECT_FALSE(again->torn_tail);
  EXPECT_TRUE(again->sealed);
}

TEST_F(ServeTest, JournalBadHeaderFailsReplay) {
  std::string path = JournalPathFor(dir_, "junk");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a journal at all";
  }
  auto summary = ReplayJournal(
      path, [](const std::string&, const SessionSpec&) { return Status::OK(); },
      [](const JournalRecord&) { return Status::OK(); });
  EXPECT_EQ(summary.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(summary.status().message().find("journal_bad_header"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Session: graceful degradation (satellite 2)

TEST(ServeSessionTest, BudgetCutDegradesInsteadOfFailing) {
  SessionSpec spec;
  spec.limits.max_executions = 3;
  Session session("cap", spec);
  BatchOutcome outcome = session.ApplyBatch(
      BatchBytes({"ABCE", "ACBE", "ABCE", "ACBE", "ABCE"}));
  EXPECT_EQ(outcome.code, ResponseCode::kDegraded);
  EXPECT_EQ(outcome.applied, 3);
  EXPECT_TRUE(outcome.degradation.degraded);
  EXPECT_EQ(outcome.degradation.resource, BudgetResource::kExecutions);
  EXPECT_EQ(outcome.degradation.cut_phase, "incremental.absorb");
  EXPECT_EQ(session.executions(), 3);

  // The cut is sticky: the model is frozen, not half-updated per batch.
  BatchOutcome later = session.ApplyBatch(BatchBytes({"ABCE"}));
  EXPECT_EQ(later.code, ResponseCode::kDegraded);
  EXPECT_EQ(later.applied, 0);
  EXPECT_EQ(session.executions(), 3);

  // And the partial model is still a model (exit-4 contract: degraded
  // results carry a usable artifact, not a bare error).
  EXPECT_EQ(session.CanonicalModelText().ok(), true);
}

TEST(ServeSessionTest, MalformedBatchLeavesSessionLive) {
  Session session("iso", SessionSpec{});
  ASSERT_EQ(session.ApplyBatch(BatchBytes({"ABCE"})).code, ResponseCode::kOk);
  BatchOutcome bad = session.ApplyBatch("definitely not a binary log");
  EXPECT_EQ(bad.code, ResponseCode::kDataError);
  EXPECT_EQ(bad.applied, 0);
  EXPECT_EQ(session.executions(), 1);  // model untouched
  // The session keeps serving afterwards.
  EXPECT_EQ(session.ApplyBatch(BatchBytes({"ACBE"})).code, ResponseCode::kOk);
  EXPECT_EQ(session.executions(), 2);
}

// ---------------------------------------------------------------------------
// ServeCore: lifecycle, shedding, isolation

TEST_F(ServeTest, OpenBatchQueryCloseLifecycle) {
  ServeOptions options;
  options.threads = 2;
  ServeCore core(options);
  std::vector<std::string> compact = {"ABCE", "ACBE", "ABCE"};

  ResponseFrame open = core.Handle(MakeRequest(FrameType::kOpen, "t1"));
  EXPECT_EQ(open.code, ResponseCode::kOk);
  ResponseFrame batch =
      core.Handle(MakeRequest(FrameType::kBatch, "t1", BatchBytes(compact), 2));
  EXPECT_EQ(batch.code, ResponseCode::kOk);
  EXPECT_EQ(batch.seq, 2u);
  EXPECT_EQ(batch.applied_executions, 3);
  ResponseFrame query = core.Handle(MakeRequest(FrameType::kQuery, "t1"));
  EXPECT_EQ(query.code, ResponseCode::kOk);
  EXPECT_EQ(query.body, SoloModel(compact));
  ResponseFrame close = core.Handle(MakeRequest(FrameType::kClose, "t1"));
  EXPECT_EQ(close.code, ResponseCode::kOk);
  // A closed session answers kSessionClosed, and reopening starts fresh.
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kQuery, "t1")).code,
            ResponseCode::kSessionClosed);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "t1")).code,
            ResponseCode::kOk);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kQuery, "t1"))
                .session_executions,
            0);
  ASSERT_TRUE(core.Drain().ok());
}

TEST_F(ServeTest, InvalidAndUnknownSessionsAreRejected) {
  ServeCore core(ServeOptions{});
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "../etc")).code,
            ResponseCode::kBadFrame);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kBatch, "ghost", "x")).code,
            ResponseCode::kSessionClosed);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kPing, "")).code,
            ResponseCode::kOk);
}

TEST_F(ServeTest, GlobalQueuedBytesBoundShedsBatches) {
  ServeOptions options;
  options.max_queued_bytes = 0;  // every batch finds the server saturated
  ServeCore core(options);
  ASSERT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "t1")).code,
            ResponseCode::kOk);
  ResponseFrame shed =
      core.Handle(MakeRequest(FrameType::kBatch, "t1", BatchBytes({"AB"})));
  EXPECT_EQ(shed.code, ResponseCode::kOverloaded);
  EXPECT_GE(core.stats().batches_shed, 1);
  ASSERT_TRUE(core.Drain().ok());
}

TEST_F(ServeTest, SessionCapShedsOpens) {
  ServeOptions options;
  options.max_sessions = 2;
  ServeCore core(options);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "a")).code,
            ResponseCode::kOk);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "b")).code,
            ResponseCode::kOk);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "c")).code,
            ResponseCode::kOverloaded);
  ASSERT_TRUE(core.Drain().ok());
}

TEST_F(ServeTest, DrainRefusesNewWorkButAnswersEverything) {
  ServeCore core(ServeOptions{});
  ASSERT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "t1")).code,
            ResponseCode::kOk);
  ASSERT_TRUE(core.Drain().ok());
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "t2")).code,
            ResponseCode::kOverloaded);
  EXPECT_EQ(
      core.Handle(MakeRequest(FrameType::kBatch, "t1", BatchBytes({"AB"})))
          .code,
      ResponseCode::kOverloaded);
  ASSERT_TRUE(core.Drain().ok());  // idempotent
}

TEST_F(ServeTest, OneTenantsBadBatchNeverTouchesAnother) {
  ServeOptions options;
  options.threads = 2;
  ServeCore core(options);
  std::vector<std::string> good = {"ABCE", "ACBE"};
  ASSERT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "good")).code,
            ResponseCode::kOk);
  ASSERT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "evil")).code,
            ResponseCode::kOk);
  EXPECT_EQ(
      core.Handle(MakeRequest(FrameType::kBatch, "good", BatchBytes(good)))
          .code,
      ResponseCode::kOk);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kBatch, "evil", "garbage"))
                .code,
            ResponseCode::kDataError);
  ResponseFrame query = core.Handle(MakeRequest(FrameType::kQuery, "good"));
  EXPECT_EQ(query.code, ResponseCode::kOk);
  EXPECT_EQ(query.body, SoloModel(good));
  EXPECT_GE(core.stats().batches_rejected, 1);
  ASSERT_TRUE(core.Drain().ok());
}

// ---------------------------------------------------------------------------
// Multi-tenant determinism (satellite 3)

TEST_F(ServeTest, InterleavedTenantsMatchSoloMiningAcrossSweeps) {
  // Four tenants with distinct processes; per-tenant batches are submitted
  // from concurrent threads so sessions genuinely interleave on the pump.
  const std::vector<std::vector<std::string>> tenants = {
      {"ABCE", "ACBE", "ABCE", "ABCE", "ACBE", "ABCE", "ACBE", "ABCE"},
      {"AFGE", "AGFE", "AFGE", "AGFE", "AFGE", "AGFE", "AFGE", "AGFE"},
      {"XYZ", "XZY", "XYZ", "XYZ", "XZY", "XYZ", "XZY", "XYZ"},
      {"PQRS", "PRQS", "PQRS", "PQRS", "PRQS", "PQRS", "PRQS", "PQRS"},
  };
  std::vector<std::string> expected;
  for (const auto& compact : tenants) expected.push_back(SoloModel(compact));

  for (int threads : {1, 2, 4}) {
    for (size_t chunk : {1u, 3u, 8u}) {
      ServeOptions options;
      options.threads = threads;
      options.queue_batches = 2;  // exercise backpressure blocking too
      ServeCore core(options);
      for (size_t t = 0; t < tenants.size(); ++t) {
        ASSERT_EQ(core.Handle(MakeRequest(FrameType::kOpen,
                                          "tenant" + std::to_string(t)))
                      .code,
                  ResponseCode::kOk);
      }
      std::vector<std::thread> submitters;
      for (size_t t = 0; t < tenants.size(); ++t) {
        submitters.emplace_back([&, t] {
          const auto& compact = tenants[t];
          for (size_t begin = 0; begin < compact.size(); begin += chunk) {
            size_t end = std::min(compact.size(), begin + chunk);
            std::vector<std::string> slice(compact.begin() + begin,
                                           compact.begin() + end);
            ResponseFrame ack = core.Handle(
                MakeRequest(FrameType::kBatch, "tenant" + std::to_string(t),
                            BatchBytes(slice)));
            EXPECT_EQ(ack.code, ResponseCode::kOk) << ack.detail;
          }
        });
      }
      for (auto& thread : submitters) thread.join();
      for (size_t t = 0; t < tenants.size(); ++t) {
        ResponseFrame query = core.Handle(
            MakeRequest(FrameType::kQuery, "tenant" + std::to_string(t)));
        ASSERT_EQ(query.code, ResponseCode::kOk);
        EXPECT_EQ(query.body, expected[t])
            << "threads=" << threads << " chunk=" << chunk << " tenant=" << t;
      }
      ASSERT_TRUE(core.Drain().ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Crash recovery (tentpole + satellite 4)

TEST_F(ServeTest, JournalReplayReproducesModelByteIdentically) {
  const std::vector<std::string> compact = {"ABCE", "ACBE", "ABCE", "ACBE",
                                            "ABCE", "ACBE"};
  std::string reference = SoloModel(compact);

  // Crash image: a session journals three batches and is destroyed without
  // Seal() — exactly what a SIGKILL leaves behind.
  {
    auto journal =
        SessionJournal::Create(JournalPathFor(dir_, "crashy"), "crashy",
                               SessionSpec{}, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok());
    Session session("crashy", SessionSpec{});
    session.AttachJournal(std::move(*journal));
    for (size_t begin = 0; begin < compact.size(); begin += 2) {
      std::vector<std::string> slice(compact.begin() + begin,
                                     compact.begin() + begin + 2);
      ASSERT_EQ(session.ApplyBatch(BatchBytes(slice)).code, ResponseCode::kOk);
    }
  }

  ServeOptions options;
  options.journal_dir = dir_;
  ServeCore core(options);
  auto recovered = core.RecoverFromJournals();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 1);
  ResponseFrame query = core.Handle(MakeRequest(FrameType::kQuery, "crashy"));
  ASSERT_EQ(query.code, ResponseCode::kOk);
  EXPECT_EQ(query.session_executions, 6);
  EXPECT_EQ(query.body, reference);

  // The recovered session keeps absorbing batches (journal resumed).
  EXPECT_EQ(
      core.Handle(MakeRequest(FrameType::kBatch, "crashy", BatchBytes({"ABCE"})))
          .code,
      ResponseCode::kOk);
  ASSERT_TRUE(core.Drain().ok());
}

TEST_F(ServeTest, TornJournalTailRecoversToLastAckedBatch) {
  const std::vector<std::string> acked = {"ABCE", "ACBE", "ABCE"};
  std::string reference = SoloModel(acked);
  std::string path = JournalPathFor(dir_, "torn");
  {
    auto journal = SessionJournal::Create(path, "torn", SessionSpec{},
                                          /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok());
    Session session("torn", SessionSpec{});
    session.AttachJournal(std::move(*journal));
    ASSERT_EQ(session.ApplyBatch(BatchBytes(acked)).code, ResponseCode::kOk);
  }
  {
    // The crash tore a record in half mid-append; those bytes were never
    // acked, so recovery must drop them and keep everything before.
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn << "\xff\x13half a record";
  }
  ServeOptions options;
  options.journal_dir = dir_;
  ServeCore core(options);
  auto recovered = core.RecoverFromJournals();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 1);
  EXPECT_EQ(core.stats().journals_torn, 1);
  ResponseFrame query = core.Handle(MakeRequest(FrameType::kQuery, "torn"));
  EXPECT_EQ(query.body, reference);
  ASSERT_TRUE(core.Drain().ok());
}

TEST_F(ServeTest, ReplayRestoresDegradedStateAndStopsAtTheCut) {
  SessionSpec spec;
  spec.limits.max_executions = 2;
  std::string path = JournalPathFor(dir_, "cut");
  {
    auto journal = SessionJournal::Create(path, "cut", spec,
                                          /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok());
    Session session("cut", spec);
    session.AttachJournal(std::move(*journal));
    BatchOutcome outcome =
        session.ApplyBatch(BatchBytes({"ABCE", "ACBE", "ABCE", "ACBE"}));
    ASSERT_EQ(outcome.code, ResponseCode::kDegraded);
    ASSERT_EQ(outcome.applied, 2);
  }
  ServeOptions options;
  options.journal_dir = dir_;
  ServeCore core(options);
  auto recovered = core.RecoverFromJournals();
  ASSERT_TRUE(recovered.ok());
  ResponseFrame query = core.Handle(MakeRequest(FrameType::kQuery, "cut"));
  EXPECT_EQ(query.session_executions, 2);  // exactly the acked prefix
  EXPECT_TRUE(query.degraded);
  EXPECT_EQ(query.resource, BudgetResource::kExecutions);
  // Still frozen after restart: the budget cut survives recovery.
  ResponseFrame more =
      core.Handle(MakeRequest(FrameType::kBatch, "cut", BatchBytes({"ABCE"})));
  EXPECT_EQ(more.code, ResponseCode::kDegraded);
  EXPECT_EQ(more.applied_executions, 0);
  ASSERT_TRUE(core.Drain().ok());
}

TEST_F(ServeTest, SealedJournalsAreNotResurrected) {
  std::string path = JournalPathFor(dir_, "done");
  {
    auto journal = SessionJournal::Create(path, "done", SessionSpec{},
                                          /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal
                    ->AppendBatch(BatchBytes({"AB"}), 1, false,
                                  BudgetResource::kNone)
                    .ok());
    ASSERT_TRUE(journal->Seal().ok());
  }
  ServeOptions options;
  options.journal_dir = dir_;
  ServeCore core(options);
  auto recovered = core.RecoverFromJournals();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 0);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kQuery, "done")).code,
            ResponseCode::kSessionClosed);
  ASSERT_TRUE(core.Drain().ok());
}

TEST_F(ServeTest, CorruptJournalIsSkippedNotFatal) {
  {
    std::ofstream junk(JournalPathFor(dir_, "broken"), std::ios::binary);
    junk << "PMSJ but then nonsense";
  }
  {
    auto journal =
        SessionJournal::Create(JournalPathFor(dir_, "healthy"), "healthy",
                               SessionSpec{}, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok());
    Session session("healthy", SessionSpec{});
    session.AttachJournal(std::move(*journal));
    ASSERT_EQ(session.ApplyBatch(BatchBytes({"ABCE"})).code, ResponseCode::kOk);
  }
  ServeOptions options;
  options.journal_dir = dir_;
  ServeCore core(options);
  auto recovered = core.RecoverFromJournals();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 1);  // one corrupt tenant never blocks the restart
  EXPECT_EQ(core.stats().journals_skipped, 1);
  EXPECT_EQ(core.Handle(MakeRequest(FrameType::kQuery, "healthy")).code,
            ResponseCode::kOk);
  ASSERT_TRUE(core.Drain().ok());
}

// ---------------------------------------------------------------------------
// Registry publication: hash chain resumes across close/reopen (satellite 4)

TEST_F(ServeTest, RegistryChainResumesAcrossSessionGenerations) {
  ServeOptions options;
  options.registry_root = dir_ + "/registry";
  ServeCore core(options);
  for (int generation = 0; generation < 2; ++generation) {
    ASSERT_EQ(core.Handle(MakeRequest(FrameType::kOpen, "t1")).code,
              ResponseCode::kOk);
    ASSERT_EQ(core.Handle(MakeRequest(FrameType::kBatch, "t1",
                                      BatchBytes({"ABCE", "ACBE"})))
                  .code,
              ResponseCode::kOk);
    ASSERT_EQ(core.Handle(MakeRequest(FrameType::kClose, "t1")).code,
              ResponseCode::kOk);
  }
  EXPECT_EQ(core.stats().models_published, 2);
  // Open() trusts only a valid hash-chain prefix, so latest_version == 2
  // proves v2's parent hash matches v1.
  auto registry = obs::ModelRegistry::Open(options.registry_root + "/t1");
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry->latest_version(), 2);
  auto latest = registry->LoadLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->window.num_executions, 2);
  ASSERT_TRUE(core.Drain().ok());
}

// ---------------------------------------------------------------------------
// Socket front end: a hostile connection never disturbs a healthy session

TEST_F(ServeTest, GarbageConnectionLeavesHealthySessionIntact) {
  ServeOptions options;
  options.threads = 2;
  ServeCore core(options);
  std::string socket_path = dir_ + "/s.sock";
  std::atomic<bool> stop{false};
  SocketServer server(&core, socket_path, kDefaultMaxFrameBytes, &stop);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { (void)server.Serve(); });

  const std::vector<std::string> compact = {"ABCE", "ACBE", "ABCE"};
  auto healthy = ServeClient::Connect(socket_path);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  auto open = healthy->Call(FrameType::kOpen, "good");
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open->code, ResponseCode::kOk);

  for (size_t i = 0; i < compact.size(); ++i) {
    // Interleave: before every healthy batch, a hostile connection sends a
    // corrupt frame and a truncated frame.
    {
      auto evil = ServeClient::Connect(socket_path);
      ASSERT_TRUE(evil.ok());
      std::string payload = "junk";
      std::string frame;
      PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
      frame += payload;
      PutFixed32(&frame, Crc32c(payload) ^ 0xff);
      (void)evil->SendRaw(frame);
      ::shutdown(evil->fd(), SHUT_WR);
      auto answer = evil->ReadResponse();
      if (answer.ok()) {
        EXPECT_EQ(answer->code, ResponseCode::kBadFrame);
      }
    }
    auto ack = healthy->Call(FrameType::kBatch, "good",
                             BatchBytes({compact[i]}));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->code, ResponseCode::kOk);
  }
  auto query = healthy->Call(FrameType::kQuery, "good");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->code, ResponseCode::kOk);
  EXPECT_EQ(query->body, SoloModel(compact));

  stop.store(true);
  serving.join();
  ASSERT_TRUE(core.Drain().ok());
}

/// Live threads of this process.
int64_t LiveThreads() {
  int64_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Inaccessible mappings of this process, thread-stack guard pages among
/// them.
int64_t GuardMappings() {
  std::ifstream maps("/proc/self/maps");
  int64_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    if (line.find(" ---p ") != std::string::npos) ++n;
  }
  return n;
}

TEST_F(ServeTest, ClosedConnectionsDoNotAccumulateThreads) {
  // Clients connect and hang up one after another. An exited thread leaves
  // /proc/self/task at once, but until it is joined it keeps its stack and
  // that stack's guard page mapped, so a server that never joins its
  // connection threads gains one guard mapping per client. The bound
  // leaves room for the few stacks glibc caches after a join and for the
  // sanitizers' own mappings.
  constexpr int64_t kClients = 200;
  ServeOptions options;
  options.threads = 2;
  ServeCore core(options);
  std::string socket_path = dir_ + "/s.sock";
  std::atomic<bool> stop{false};
  SocketServer server(&core, socket_path, kDefaultMaxFrameBytes, &stop);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { (void)server.Serve(); });

  auto owner = ServeClient::Connect(socket_path);
  ASSERT_TRUE(owner.ok()) << owner.status().ToString();
  auto open = owner->Call(FrameType::kOpen, "s");
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open->code, ResponseCode::kOk);
  const int64_t threads_before = LiveThreads();
  const int64_t guards_before = GuardMappings();
  for (int64_t i = 0; i < kClients; ++i) {
    auto client = ServeClient::Connect(socket_path);
    ASSERT_TRUE(client.ok()) << i << ": " << client.status().ToString();
    ASSERT_TRUE(client->Call(FrameType::kQuery, "s").ok()) << i;
  }
  EXPECT_LE(LiveThreads(), threads_before + 4);
  EXPECT_LT(GuardMappings(), guards_before + kClients / 2);

  stop.store(true);
  serving.join();
  ASSERT_TRUE(core.Drain().ok());
}

// ---------------------------------------------------------------------------
// Failpoints: journal append failure evicts the batch (nothing half-acked)

TEST_F(ServeTest, JournalAppendFailureEvictsTheBatch) {
  auto journal =
      SessionJournal::Create(JournalPathFor(dir_, "evict"), "evict",
                             SessionSpec{}, /*fsync_appends=*/false);
  ASSERT_TRUE(journal.ok());
  Session session("evict", SessionSpec{});
  session.AttachJournal(std::move(*journal));
  ASSERT_EQ(session.ApplyBatch(BatchBytes({"ABCE"})).code, ResponseCode::kOk);

  failpoint::Activate("serve.journal.append", failpoint::Action::kError);
  BatchOutcome failed = session.ApplyBatch(BatchBytes({"ACBE"}));
  EXPECT_EQ(failed.code, ResponseCode::kInternal);
  EXPECT_EQ(session.executions(), 1);  // the un-journaled batch was evicted
  failpoint::DeactivateAll();

  // After the fault clears, the same batch applies cleanly — and the model
  // equals the never-faulted run (the eviction was an exact inverse).
  ASSERT_EQ(session.ApplyBatch(BatchBytes({"ACBE"})).code, ResponseCode::kOk);
  auto text = session.CanonicalModelText();
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, SoloModel({"ABCE", "ACBE"}));
}

}  // namespace
}  // namespace procmine::serve
