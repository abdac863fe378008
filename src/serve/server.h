// ServeCore + SocketServer: the `procmine serve` daemon.
//
// ServeCore is the socket-free heart (and the unit under test): a session
// table multiplexing many tenants onto one ThreadPool. Connection threads
// (or tests) call Handle() synchronously; internally a batch/query/close
// request is enqueued on its session's bounded ingress queue and a pump
// thread fans the sessions with pending work out over the pool — each
// session is drained by exactly one shard at a time, so every session's
// operations apply serially in arrival order. That serial discipline is why
// an N-tenant run is byte-identical to mining each session alone, for any
// thread count.
//
// Robustness posture:
//   * Isolation — every per-session fault (malformed batch, budget cut,
//     journal error) is converted into that session's response code and
//     touches no other session. A malformed FRAME (unparseable stream)
//     costs the client its connection, never anyone's session.
//   * Recovery — RecoverFromJournals() replays every journal in the
//     journal directory; torn tails are truncated (the torn batch was
//     never acked) and sealed journals (graceful closes) are not
//     resurrected.
//   * Backpressure — a full session queue blocks the submitting connection
//     (the client stops being read, so the kernel socket buffer throttles
//     it); a global queued-bytes bound and the RunBudget memory high-water
//     shed new batches with kOverloaded instead of OOMing. Idle sessions
//     are closed (published + sealed) after idle_timeout_ms.
//   * Drain — Drain() finishes all queued work, publishes every live
//     session's model to its ModelRegistry (<registry_root>/<session>),
//     and seals journals: the SIGTERM path.
//
// SocketServer is the thin unix-socket front end: an acceptor plus one
// thread per connection, all polling a stop flag so SIGTERM turns into a
// graceful drain. Failpoint sites: serve.accept, serve.read, serve.write.

#ifndef PROCMINE_SERVE_SERVER_H_
#define PROCMINE_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/session.h"
#include "serve/wire.h"
#include "util/budget.h"
#include "util/thread_pool.h"

namespace procmine::serve {

struct ServeOptions {
  /// Journal directory; "" disables journaling (and crash recovery).
  std::string journal_dir;
  /// Registry root; "" disables model publication. Session models publish
  /// to <registry_root>/<session> on close / idle timeout / drain.
  std::string registry_root;
  /// Worker pool size (1 = inline sequential; <=0 = hardware concurrency).
  int threads = 1;
  /// Per-session ingress queue bound, in batches. A submitter whose
  /// session queue is full blocks until the pump drains it.
  int queue_batches = 8;
  /// Per-frame payload ceiling handed to ReadFrame.
  int64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Idle-session timeout; a session with no traffic for this long is
  /// closed (published + sealed). <0 disables.
  int64_t idle_timeout_ms = -1;
  /// Open-session ceiling; opens beyond it are shed with kOverloaded.
  int64_t max_sessions = 256;
  /// Global bound on bytes sitting in ingress queues. Deterministic
  /// companion of the rss high-water: either tripping sheds the incoming
  /// batch (the submitter IS the noisiest client — it found the server
  /// already saturated).
  int64_t max_queued_bytes = 64ll << 20;
  /// Whole-server budget. Only max_memory_bytes is read (through
  /// OverMemoryHighWater) — per-session limits live in each SessionSpec.
  RunBudget::Limits global_limits;
  /// Spec for sessions opened with an empty kOpen body.
  SessionSpec default_spec;
  /// fsync journal appends (durability vs. throughput; tests turn it off).
  bool fsync_journal = true;
};

/// Monotonic counters, readable while serving (all guarded internally).
struct ServeStats {
  int64_t sessions_opened = 0;
  int64_t sessions_recovered = 0;
  int64_t sessions_closed = 0;
  int64_t batches_applied = 0;
  int64_t batches_degraded = 0;
  int64_t batches_rejected = 0;  ///< data errors (isolation events)
  int64_t batches_shed = 0;      ///< overload rejections
  int64_t journals_torn = 0;     ///< torn tails truncated during recovery
  int64_t journals_skipped = 0;  ///< unreadable/corrupt journals skipped
  int64_t models_published = 0;
};

class ServeCore {
 public:
  explicit ServeCore(const ServeOptions& options);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// Replays every *.pmj under journal_dir, rebuilding live sessions and
  /// truncating torn tails. Unreadable or bad-header journals are skipped
  /// (logged in stats) — one corrupt tenant must not block the restart.
  /// Call once, before serving. Returns the number of sessions restored.
  Result<int64_t> RecoverFromJournals();

  /// Processes one request synchronously: table operations (open/ping)
  /// inline, session work (batch/query/close) through the session's queue
  /// and the pump. Safe to call from any number of threads.
  ResponseFrame Handle(const RequestFrame& request);

  /// Graceful drain: refuses new work, finishes every queued request,
  /// publishes every live session's model, seals journals. Idempotent.
  Status Drain();

  const ServeStats& stats() const { return stats_; }
  int64_t sessions_open() const;
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

 private:
  struct Work;
  struct SessionEntry;

  ResponseFrame HandleOpen(const RequestFrame& request);
  ResponseFrame SubmitWork(const RequestFrame& request);

  void PumpLoop();
  void DrainSessionQueue(SessionEntry* entry);
  void ExecuteWork(SessionEntry* entry, Work* work);
  /// Publishes + seals one session (close path). Caller must be the
  /// entry's exclusive drainer (or the post-pump drain).
  void CloseSession(SessionEntry* entry, std::string* detail);
  Status PublishModel(Session* session);
  void ScanIdleSessions();

  ServeOptions options_;
  RunBudget global_budget_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable pump_cv_;    ///< pump: work arrived / stop
  std::condition_variable space_cv_;   ///< submitters: queue room / drained
  std::map<std::string, std::unique_ptr<SessionEntry>> sessions_;
  int64_t total_queued_bytes_ = 0;
  bool stop_pump_ = false;
  std::atomic<bool> draining_{false};
  bool drained_ = false;
  ServeStats stats_;

  std::thread pump_;
};

/// Unix-domain stream front end over a ServeCore.
class SocketServer {
 public:
  /// `stop` is polled by every loop (~5x/second); the CLI's signal handler
  /// sets it on SIGTERM/SIGINT.
  SocketServer(ServeCore* core, std::string socket_path,
               int64_t max_frame_bytes, const std::atomic<bool>* stop);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens on the socket path (unlinking a stale file first).
  Status Start();

  /// Accept loop; returns once `stop` is set and every connection thread
  /// exited. The caller then runs core->Drain(). Failpoint: serve.accept.
  Status Serve();

 private:
  /// One client's thread. `done` is the thread's last write, so once it is
  /// set, joining the thread returns at once.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void ConnectionLoop(int fd, std::atomic<bool>* done);

  ServeCore* core_;
  std::string socket_path_;
  int64_t max_frame_bytes_;
  const std::atomic<bool>* stop_;
  int listen_fd_ = -1;

  std::mutex threads_mu_;
  std::list<Connection> connections_;  // stable addresses for `done`
};

}  // namespace procmine::serve

#endif  // PROCMINE_SERVE_SERVER_H_
