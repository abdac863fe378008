#include "serve/server.h"

#include <dirent.h>
#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <utility>

#include "obs/metrics.h"
#include "obs/registry.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace procmine::serve {

namespace {

using Clock = std::chrono::steady_clock;

void FillDegradation(const DegradationInfo& degradation,
                     ResponseFrame* response) {
  response->degraded = degradation.degraded;
  response->resource = degradation.resource;
  response->cut_phase = degradation.cut_phase;
  response->dropped = degradation.dropped;
}

}  // namespace

struct ServeCore::Work {
  FrameType type = FrameType::kPing;
  uint64_t seq = 0;  ///< echoed into the response set on `done`
  std::string bytes;
  std::promise<ResponseFrame> done;
};

struct ServeCore::SessionEntry {
  std::string name;
  std::unique_ptr<Session> session;  ///< null once closed (tombstone)
  std::deque<std::unique_ptr<Work>> queue;
  int64_t queued_bytes = 0;
  bool busy = false;  ///< a pump shard is draining this queue
  Clock::time_point last_activity = Clock::now();
};

ServeCore::ServeCore(const ServeOptions& options)
    : options_(options), global_budget_(options.global_limits) {
  if (options_.queue_batches < 1) options_.queue_batches = 1;
  pool_ = std::make_unique<ThreadPool>(ResolveThreadCount(options_.threads));
  global_budget_.Start();
  pump_ = std::thread(&ServeCore::PumpLoop, this);
}

ServeCore::~ServeCore() {
  // Idempotent; the CLI already drained on the graceful path. A publish
  // error here has nowhere to go — the destructor only guarantees the pump
  // is stopped and queued work answered.
  (void)Drain();
}

int64_t ServeCore::sessions_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t open = 0;
  for (const auto& [name, entry] : sessions_) {
    if (entry->session != nullptr) ++open;
  }
  return open;
}

// ---------------------------------------------------------------------------
// Recovery

Result<int64_t> ServeCore::RecoverFromJournals() {
  if (options_.journal_dir.empty()) return int64_t{0};
  // The pump is already running (started in the constructor) and iterates
  // sessions_ under mu_, so the whole rebuild holds the lock. Recovery runs
  // once, before any client traffic — blocking the (idle) pump is free.
  std::lock_guard<std::mutex> lock(mu_);
  DIR* dir = ::opendir(options_.journal_dir.c_str());
  if (dir == nullptr) {
    if (errno != ENOENT) {
      return Status::IOError(StrFormat("cannot open journal dir %s: %s",
                                       options_.journal_dir.c_str(),
                                       std::strerror(errno)));
    }
    if (::mkdir(options_.journal_dir.c_str(), 0755) != 0) {
      return Status::IOError(StrFormat("cannot create journal dir %s: %s",
                                       options_.journal_dir.c_str(),
                                       std::strerror(errno)));
    }
    return int64_t{0};
  }
  std::vector<std::string> files;
  while (struct dirent* ent = ::readdir(dir)) {
    std::string_view name(ent->d_name);
    if (EndsWith(name, kJournalSuffix)) files.emplace_back(name);
  }
  ::closedir(dir);
  std::sort(files.begin(), files.end());  // deterministic restore order

  int64_t recovered = 0;
  for (const std::string& file : files) {
    const std::string path = options_.journal_dir + "/" + file;
    std::string session_name;
    Session* session = nullptr;
    auto summary = ReplayJournal(
        path,
        [&](const std::string& name, const SessionSpec& spec) -> Status {
          if (sessions_.count(name) > 0) {
            return Status::DataLoss(
                StrFormat("duplicate session %s in journal %s", name.c_str(),
                          path.c_str()));
          }
          auto entry = std::make_unique<SessionEntry>();
          entry->name = name;
          entry->session = std::make_unique<Session>(name, spec);
          session = entry->session.get();
          session_name = name;
          sessions_.emplace(name, std::move(entry));
          return Status::OK();
        },
        [&](const JournalRecord& record) {
          return session->ReplayRecord(record);
        });
    if (!summary.ok()) {
      // One corrupt tenant must not block the restart: drop whatever the
      // failed replay built and keep going. The journal file is left in
      // place for offline triage.
      if (!session_name.empty()) sessions_.erase(session_name);
      ++stats_.journals_skipped;
      continue;
    }
    if (summary->torn_tail) ++stats_.journals_torn;
    if (summary->sealed) {
      // Graceful close: the model was published before the seal. Do not
      // resurrect the session — a re-open starts a fresh journal and the
      // registry chain continues from the published version.
      if (!session_name.empty()) sessions_.erase(session_name);
      continue;
    }
    auto journal =
        SessionJournal::Resume(path, summary->good_bytes,
                               options_.fsync_journal);
    if (!journal.ok()) {
      if (!session_name.empty()) sessions_.erase(session_name);
      ++stats_.journals_skipped;
      continue;
    }
    session->AttachJournal(std::move(*journal));
    ++recovered;
    ++stats_.sessions_recovered;
  }
  return recovered;
}

// ---------------------------------------------------------------------------
// Request handling

ResponseFrame ServeCore::Handle(const RequestFrame& request) {
  switch (request.type) {
    case FrameType::kPing: {
      ResponseFrame response;
      response.seq = request.seq;
      return response;
    }
    case FrameType::kOpen:
      return HandleOpen(request);
    case FrameType::kBatch:
    case FrameType::kQuery:
    case FrameType::kClose:
      return SubmitWork(request);
  }
  ResponseFrame response;
  response.seq = request.seq;
  response.code = ResponseCode::kBadFrame;
  response.detail = "unknown frame type";
  return response;
}

ResponseFrame ServeCore::HandleOpen(const RequestFrame& request) {
  ResponseFrame response;
  response.seq = request.seq;
  if (!ValidSessionName(request.session)) {
    response.code = ResponseCode::kBadFrame;
    response.detail = "invalid session name";
    return response;
  }
  SessionSpec spec = options_.default_spec;
  if (!request.body.empty()) {
    auto decoded = DecodeSessionSpec(request.body);
    if (!decoded.ok()) {
      response.code = ResponseCode::kBadFrame;
      response.detail = std::string(decoded.status().message());
      return response;
    }
    spec = *decoded;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (draining_.load(std::memory_order_relaxed)) {
    response.code = ResponseCode::kOverloaded;
    response.detail = "server is draining";
    return response;
  }
  auto it = sessions_.find(request.session);
  if (it != sessions_.end() && it->second->session != nullptr) {
    // Re-attach: the session (possibly journal-recovered) keeps its
    // original spec.
    response.session_executions = it->second->session->executions();
    response.detail = "attached";
    return response;
  }
  int64_t open = 0;
  for (const auto& [name, entry] : sessions_) {
    if (entry->session != nullptr) ++open;
  }
  if (open >= options_.max_sessions) {
    response.code = ResponseCode::kOverloaded;
    response.detail = StrFormat("session limit (%lld) reached",
                                static_cast<long long>(options_.max_sessions));
    return response;
  }

  auto session = std::make_unique<Session>(request.session, spec);
  if (!options_.journal_dir.empty()) {
    auto journal = SessionJournal::Create(
        JournalPathFor(options_.journal_dir, request.session), request.session,
        spec, options_.fsync_journal);
    if (!journal.ok()) {
      response.code = ResponseCode::kInternal;
      response.detail = std::string(journal.status().message());
      return response;
    }
    session->AttachJournal(std::move(*journal));
  }
  if (it == sessions_.end()) {
    auto entry = std::make_unique<SessionEntry>();
    entry->name = request.session;
    it = sessions_.emplace(request.session, std::move(entry)).first;
  }
  it->second->session = std::move(session);
  it->second->last_activity = Clock::now();
  ++stats_.sessions_opened;
  return response;
}

ResponseFrame ServeCore::SubmitWork(const RequestFrame& request) {
  ResponseFrame response;
  response.seq = request.seq;
  auto work = std::make_unique<Work>();
  work->type = request.type;
  work->seq = request.seq;
  work->bytes = request.body;
  std::future<ResponseFrame> done = work->done.get_future();
  const int64_t size = static_cast<int64_t>(work->bytes.size());
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_relaxed)) {
      response.code = ResponseCode::kOverloaded;
      response.detail = "server is draining";
      ++stats_.batches_shed;
      return response;
    }
    auto it = sessions_.find(request.session);
    if (it == sessions_.end() || it->second->session == nullptr) {
      response.code = ResponseCode::kSessionClosed;
      response.detail = "unknown or closed session";
      return response;
    }
    SessionEntry* entry = it->second.get();
    if (request.type == FrameType::kBatch) {
      // Overload shedding: the submitter found the server saturated, so
      // the submitter is who gets shed. The queued-bytes bound is the
      // deterministic twin of the rss high-water probe.
      if (total_queued_bytes_ + size > options_.max_queued_bytes ||
          global_budget_.OverMemoryHighWater()) {
        response.code = ResponseCode::kOverloaded;
        response.detail = "ingress over memory high water; retry later";
        ++stats_.batches_shed;
        return response;
      }
      // Backpressure: a full session queue blocks this submitter (and
      // thereby its connection) until the pump catches up.
      space_cv_.wait(lock, [&] {
        return draining_.load(std::memory_order_relaxed) ||
               entry->queue.size() <
                   static_cast<size_t>(options_.queue_batches);
      });
      if (draining_.load(std::memory_order_relaxed)) {
        response.code = ResponseCode::kOverloaded;
        response.detail = "server is draining";
        ++stats_.batches_shed;
        return response;
      }
    }
    entry->queue.push_back(std::move(work));
    entry->queued_bytes += size;
    total_queued_bytes_ += size;
    entry->last_activity = Clock::now();
  }
  pump_cv_.notify_one();
  return done.get();
}

// ---------------------------------------------------------------------------
// The pump: sessions with pending work fan out over the pool; one shard
// drains one session at a time, so per-session application is serial.

void ServeCore::PumpLoop() {
  const auto tick = std::chrono::milliseconds(100);
  for (;;) {
    std::vector<SessionEntry*> ready;
    {
      std::unique_lock<std::mutex> lock(mu_);
      pump_cv_.wait_for(lock, tick, [&] {
        if (stop_pump_) return true;
        for (const auto& [name, entry] : sessions_) {
          if (!entry->busy && !entry->queue.empty()) return true;
        }
        return false;
      });
      for (const auto& [name, entry] : sessions_) {
        if (!entry->busy && !entry->queue.empty()) {
          entry->busy = true;
          ready.push_back(entry.get());
        }
      }
      if (stop_pump_ && ready.empty()) return;
    }
    if (ready.size() == 1) {
      DrainSessionQueue(ready[0]);
    } else if (!ready.empty()) {
      pool_->ParallelFor(ready.size(),
                         [&](size_t /*shard*/, size_t begin, size_t end) {
                           for (size_t i = begin; i < end; ++i) {
                             DrainSessionQueue(ready[i]);
                           }
                         });
    }
    if (options_.idle_timeout_ms >= 0) ScanIdleSessions();
  }
}

void ServeCore::DrainSessionQueue(SessionEntry* entry) {
  for (;;) {
    std::unique_ptr<Work> work;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (entry->queue.empty()) {
        entry->busy = false;
        space_cv_.notify_all();  // Drain() waits for idle
        return;
      }
      work = std::move(entry->queue.front());
      entry->queue.pop_front();
      const int64_t size = static_cast<int64_t>(work->bytes.size());
      entry->queued_bytes -= size;
      total_queued_bytes_ -= size;
      space_cv_.notify_all();
    }
    ExecuteWork(entry, work.get());
  }
}

void ServeCore::ExecuteWork(SessionEntry* entry, Work* work) {
  static obs::Counter* applied_counter =
      obs::MetricsRegistry::Get().GetCounter("serve.batches_applied");
  static obs::Counter* rejected_counter =
      obs::MetricsRegistry::Get().GetCounter("serve.batches_rejected");

  ResponseFrame response;
  response.seq = work->seq;
  Session* session = entry->session.get();
  if (session == nullptr) {
    response.code = ResponseCode::kSessionClosed;
    response.detail = "session closed before this request was processed";
    work->done.set_value(std::move(response));
    return;
  }
  switch (work->type) {
    case FrameType::kBatch: {
      BatchOutcome outcome = session->ApplyBatch(work->bytes);
      response.code = outcome.code;
      response.applied_executions = outcome.applied;
      response.detail = outcome.detail;
      FillDegradation(outcome.degradation, &response);
      response.session_executions = session->executions();
      std::lock_guard<std::mutex> lock(mu_);
      switch (outcome.code) {
        case ResponseCode::kOk:
          ++stats_.batches_applied;
          applied_counter->Increment();
          break;
        case ResponseCode::kDegraded:
          ++stats_.batches_degraded;
          if (outcome.applied > 0) ++stats_.batches_applied;
          break;
        default:
          ++stats_.batches_rejected;
          rejected_counter->Increment();
          break;
      }
      break;
    }
    case FrameType::kQuery: {
      response.session_executions = session->executions();
      FillDegradation(session->degradation(), &response);
      if (session->executions() == 0) {
        response.detail = "no executions absorbed yet";
      } else {
        auto text = session->CanonicalModelText();
        if (text.ok()) {
          response.body = std::move(*text);
        } else {
          response.code = ResponseCode::kInternal;
          response.detail = std::string(text.status().message());
        }
      }
      break;
    }
    case FrameType::kClose: {
      response.session_executions = session->executions();
      std::string detail;
      CloseSession(entry, &detail);
      response.detail = detail;
      if (StartsWith(detail, "error")) {
        response.code = ResponseCode::kInternal;
      }
      break;
    }
    default:
      response.code = ResponseCode::kBadFrame;
      response.detail = "unexpected frame type in session queue";
      break;
  }
  work->done.set_value(std::move(response));
}

void ServeCore::CloseSession(SessionEntry* entry, std::string* detail) {
  Session* session = entry->session.get();
  if (session == nullptr) return;
  Status published = PublishModel(session);
  Status sealed = session->SealJournal();
  if (!published.ok()) {
    *detail = StrFormat("error publishing model: %s",
                        std::string(published.message()).c_str());
  } else if (!sealed.ok()) {
    *detail = StrFormat("error sealing journal: %s",
                        std::string(sealed.message()).c_str());
  } else {
    *detail = StrFormat("closed after %lld executions",
                        static_cast<long long>(session->executions()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  entry->session.reset();
  ++stats_.sessions_closed;
}

Status ServeCore::PublishModel(Session* session) {
  if (options_.registry_root.empty()) return Status::OK();
  if (session->executions() == 0) return Status::OK();
  PROCMINE_ASSIGN_OR_RETURN(ProcessGraph graph,
                            session->miner().CurrentGraph());
  if (::mkdir(options_.registry_root.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(StrFormat("cannot create registry root %s: %s",
                                     options_.registry_root.c_str(),
                                     std::strerror(errno)));
  }
  PROCMINE_ASSIGN_OR_RETURN(
      obs::ModelRegistry registry,
      obs::ModelRegistry::Open(options_.registry_root + "/" +
                               session->name()));
  obs::ModelSnapshot snapshot;
  snapshot.window.index = registry.latest_version() + 1;
  snapshot.window.first_execution = 0;
  snapshot.window.last_execution = session->executions() - 1;
  snapshot.window.num_executions = session->executions();
  snapshot.window.first_name = session->first_execution_name();
  snapshot.window.last_name = session->last_execution_name();
  snapshot.noise_threshold = session->spec().noise_threshold;
  snapshot.activities = session->miner().dictionary().names();
  std::sort(snapshot.activities.begin(), snapshot.activities.end());
  for (const Edge& e : graph.graph().Edges()) {
    snapshot.edges.push_back(obs::SnapshotEdge{
        graph.name(e.from), graph.name(e.to),
        session->miner().EdgeSupport(e.from, e.to)});
  }
  std::sort(snapshot.edges.begin(), snapshot.edges.end(),
            [](const obs::SnapshotEdge& a, const obs::SnapshotEdge& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  PROCMINE_RETURN_NOT_OK(registry.Append(std::move(snapshot)).status());
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.models_published;
  return Status::OK();
}

void ServeCore::ScanIdleSessions() {
  const auto now = Clock::now();
  const auto timeout = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_.load(std::memory_order_relaxed)) return;
  for (const auto& [name, entry] : sessions_) {
    if (entry->session == nullptr || entry->busy || !entry->queue.empty()) {
      continue;
    }
    if (now - entry->last_activity < timeout) continue;
    // Synthetic close: goes through the queue like any other request so it
    // serializes with concurrent submissions. Nobody waits on its future.
    auto work = std::make_unique<Work>();
    work->type = FrameType::kClose;
    entry->queue.push_back(std::move(work));
    entry->last_activity = now;
  }
}

// ---------------------------------------------------------------------------
// Drain

Status ServeCore::Drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (drained_) return Status::OK();
    draining_.store(true, std::memory_order_relaxed);
    space_cv_.notify_all();  // blocked submitters shed and return
    pump_cv_.notify_all();
    // Wait for every queue to empty and every drainer to finish.
    space_cv_.wait(lock, [&] {
      for (const auto& [name, entry] : sessions_) {
        if (entry->busy || !entry->queue.empty()) return false;
      }
      return true;
    });
    stop_pump_ = true;
    drained_ = true;
  }
  pump_cv_.notify_all();
  if (pump_.joinable()) pump_.join();

  // Publish + seal every live session, in name order (deterministic).
  Status first_error = Status::OK();
  for (const auto& [name, entry] : sessions_) {
    if (entry->session == nullptr) continue;
    std::string detail;
    CloseSession(entry.get(), &detail);
    if (StartsWith(detail, "error") && first_error.ok()) {
      first_error = Status::Internal(detail);
    }
  }
  return first_error;
}

// ---------------------------------------------------------------------------
// SocketServer

SocketServer::SocketServer(ServeCore* core, std::string socket_path,
                           int64_t max_frame_bytes,
                           const std::atomic<bool>* stop)
    : core_(core),
      socket_path_(std::move(socket_path)),
      max_frame_bytes_(max_frame_bytes),
      stop_(stop) {}

SocketServer::~SocketServer() {
  for (Connection& c : connections_) {
    if (c.thread.joinable()) c.thread.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

Status SocketServer::Start() {
  sockaddr_un addr{};
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path_);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  ::unlink(socket_path_.c_str());  // stale socket from a crashed server
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(StrFormat("bind %s: %s", socket_path_.c_str(),
                                     std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IOError(StrFormat("listen %s: %s", socket_path_.c_str(),
                                     std::strerror(errno)));
  }
  return Status::OK();
}

Status SocketServer::Serve() {
  while (!stop_->load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("poll: %s", std::strerror(errno)));
    }
    if (ready == 0) continue;

    bool reject = false;
    if (auto fp = PROCMINE_FAILPOINT("serve.accept"); fp) {
      if (fp.action == failpoint::Action::kEintr) continue;
      // An injected accept fault costs the incoming client its connection
      // — the server itself must keep serving.
      reject = true;
    }
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Status::IOError(StrFormat("accept: %s", std::strerror(errno)));
    }
    if (reject) {
      ::close(fd);
      continue;
    }
    // Stall guard: a client that freezes mid-frame is dropped after 5s
    // instead of pinning its connection thread forever.
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::lock_guard<std::mutex> lock(threads_mu_);
    // Join the connections that have hung up, so the server holds one
    // thread per live client rather than one per client it ever served.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done.load()) {
        it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    Connection& connection = connections_.emplace_back();
    connection.thread = std::thread(&SocketServer::ConnectionLoop, this, fd,
                                    &connection.done);
  }
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (Connection& c : connections_) {
    if (c.thread.joinable()) c.thread.join();
  }
  connections_.clear();
  return Status::OK();
}

void SocketServer::ConnectionLoop(int fd, std::atomic<bool>* done) {
  while (!stop_->load(std::memory_order_relaxed)) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;

    auto payload = ReadFrame(fd, max_frame_bytes_);
    if (!payload.ok()) {
      if (payload.status().code() != StatusCode::kNotFound) {
        // Torn / oversize / checksum-failed frame: the stream can no
        // longer be trusted, so answer kBadFrame (best effort) and hang
        // up. Only this client's connection is affected.
        ResponseFrame err;
        err.code = ResponseCode::kBadFrame;
        err.detail = std::string(payload.status().message());
        (void)WriteFrame(fd, EncodeResponse(err));
      }
      break;
    }
    auto request = DecodeRequest(*payload);
    ResponseFrame response;
    if (!request.ok()) {
      response.code = ResponseCode::kBadFrame;
      response.detail = std::string(request.status().message());
    } else {
      response = core_->Handle(*request);
    }
    if (!WriteFrame(fd, EncodeResponse(response)).ok()) break;
    if (!request.ok()) break;  // framing is suspect; hang up after the nack
  }
  ::close(fd);
  done->store(true);
}

}  // namespace procmine::serve
