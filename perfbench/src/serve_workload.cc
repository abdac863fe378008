// serve_mixed: a closed loop of client connections feeding batches and
// queries to an in-process `procmine serve` (ServeCore + SocketServer on a
// unix socket, journaling with fsync off), then crash-image recovery.
//
// Set-up generates every session's batch pool, starts the server and opens
// the sessions (nine times; setup_s is the median). The untimed warm-up
// sends each session its whole pool once, so the timed phase runs at a
// steady state: after one pass the sessions hold every distinct activity
// set their pools contain. The crash image is copied right after the
// warm-up's last ack, so every recovery replays the same journal bytes
// however fast the timed phase ran.
//
// The timed phase is cut into kWindows equal windows by completion time.
// Throughput and the latency medians are taken per window and the median
// over windows is reported, so a burst of host noise that spoils a few
// windows does not move the result. Journal fsync is off: with it on,
// every ack waits on the disk of the checkout, whose flush latency is set
// by whatever else the host writes.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <thread>

#include "log/binary_log.h"
#include "mine/incremental.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/session.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"
#include "workloads.h"

namespace perfbench {
namespace {

using procmine::EventLog;
using procmine::Execution;
using procmine::serve::FrameType;
using procmine::serve::ResponseCode;
using procmine::serve::ResponseFrame;

/// Windows the timed phase is cut into (see the top of the file).
constexpr int kWindows = 10;

struct ServeSizes {
  int sessions;
  int connections;
  int32_t activities;       ///< per session graph
  int batch_executions;
  int pool_batches;         ///< distinct batches per session, sent in a cycle
  int query_every;          ///< every N-th request of a session is a query
  int server_threads;
  int recoveries;
};

ServeSizes SizesFor(const RunConfig& config) {
  if (config.tiny) return {8, 2, 8, 4, 3, 4, 2, 2};
  return {8, 2, 24, 32, 64, 8, 2, 61};
}

/// One session's input: its batches and their raw event counts.
struct SessionPool {
  std::string name;
  std::vector<EventLog> batches;
  std::vector<int64_t> events;
};

EventLog Slice(const EventLog& log, size_t begin, size_t end) {
  EventLog slice;
  for (size_t i = begin; i < end; ++i) {
    const Execution& exec = log.execution(i);
    Execution copy(exec.name());
    for (const procmine::ActivityInstance& instance : exec.instances()) {
      procmine::ActivityInstance mapped = instance;
      mapped.activity = slice.dictionary().Intern(
          log.dictionary().Name(instance.activity));
      copy.Append(std::move(mapped));
    }
    slice.AddExecution(std::move(copy));
  }
  return slice;
}

bool MakePools(const RunConfig& config, const ServeSizes& sizes,
               std::vector<SessionPool>* pools) {
  pools->clear();
  for (int s = 0; s < sizes.sessions; ++s) {
    procmine::RandomDagOptions dag;
    dag.num_activities = sizes.activities;
    dag.edge_density = procmine::PaperEdgeDensity(sizes.activities);
    dag.seed = kGraphSeed + static_cast<uint64_t>(s);
    procmine::ProcessGraph truth = procmine::GenerateRandomDag(dag);
    procmine::WalkLogOptions walk;
    walk.num_executions =
        static_cast<size_t>(sizes.pool_batches) * sizes.batch_executions;
    walk.seed = config.seed * 1000003 + static_cast<uint64_t>(s);
    auto log = procmine::GenerateWalkLog(truth, walk);
    if (!log.ok()) return false;
    SessionPool pool;
    pool.name = StrFormat("tenant-%02d", s);
    for (int b = 0; b < sizes.pool_batches; ++b) {
      const size_t begin = static_cast<size_t>(b) * sizes.batch_executions;
      EventLog batch = Slice(*log, begin, begin + sizes.batch_executions);
      pool.events.push_back(2 * batch.TotalInstances());
      pool.batches.push_back(std::move(batch));
    }
    pools->push_back(std::move(pool));
  }
  return true;
}

/// The model text a session's query returns: sorted "from\tto" lines.
/// Written here rather than borrowed from Session so that the oracle shares
/// no code with the server it checks.
std::string CanonicalText(const procmine::ProcessGraph& graph) {
  std::vector<std::string> lines;
  for (const procmine::Edge& e : graph.graph().Edges()) {
    lines.push_back(graph.name(e.from) + "\t" + graph.name(e.to) + "\n");
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

/// The running server and its client connections.
class Rig {
 public:
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { Stop(); }

  bool Start(const procmine::serve::ServeOptions& options,
             const std::string& socket_path, int connections) {
    stop_.store(false);
    core_ = std::make_unique<procmine::serve::ServeCore>(options);
    server_ = std::make_unique<procmine::serve::SocketServer>(
        core_.get(), socket_path, procmine::serve::kDefaultMaxFrameBytes,
        &stop_);
    if (!server_->Start().ok()) return false;
    serving_ = std::thread([this] { (void)server_->Serve(); });
    for (int c = 0; c < connections; ++c) {
      auto client = procmine::serve::ServeClient::Connect(socket_path);
      if (!client.ok()) return false;
      clients_.push_back(std::move(client).ValueOrDie());
    }
    return true;
  }

  /// Closes the connections, stops the server and drains the core.
  void Stop() {
    clients_.clear();
    if (serving_.joinable()) {
      stop_.store(true);
      serving_.join();
    }
    if (core_) (void)core_->Drain();
    server_.reset();
    core_.reset();
  }

  procmine::serve::ServeClient& client(int c) { return clients_[c]; }

 private:
  std::unique_ptr<procmine::serve::ServeCore> core_;
  std::unique_ptr<procmine::serve::SocketServer> server_;
  std::atomic<bool> stop_{false};
  std::thread serving_;
  std::vector<procmine::serve::ServeClient> clients_;
};

/// What one connection saw during a phase. Every sample is stamped with
/// its completion time from the phase start.
struct ConnectionLog {
  std::vector<Stamped> ack_s;
  std::vector<Stamped> query_s;
  std::vector<Stamped> events;  ///< raw events of each acked batch
  int64_t requests = 0;
  int64_t failed = 0;
};

/// Per-session request cursor: requests sent and batches acked so far.
struct Cursor {
  int64_t requests = 0;
  int64_t batches = 0;
};

/// One request of `session` on `client`: a query every `query_every`-th
/// request, a batch otherwise. A response fails unless it is kOk and
/// reports the session's execution count the acked batches add up to.
void SendNext(procmine::serve::ServeClient& client, const SessionPool& pool,
              const ServeSizes& sizes, Clock::time_point phase_start,
              Cursor* cursor, ConnectionLog* log) {
  const bool query =
      cursor->requests % sizes.query_every == sizes.query_every - 1;
  ++cursor->requests;
  ++log->requests;
  const size_t b = static_cast<size_t>(cursor->batches) % pool.batches.size();
  std::string body;
  if (!query) body = procmine::EncodeBinaryLog(pool.batches[b]);
  const auto start = Clock::now();
  auto response = client.Call(query ? FrameType::kQuery : FrameType::kBatch,
                              pool.name, body);
  const double seconds = SecondsSince(start);
  const double at = SecondsSince(phase_start);
  const int64_t executions =
      (cursor->batches + (query ? 0 : 1)) * sizes.batch_executions;
  if (!response.ok() || response->code != ResponseCode::kOk ||
      response->session_executions != executions) {
    ++log->failed;
    return;
  }
  if (query) {
    log->query_s.push_back({at, seconds});
  } else {
    log->ack_s.push_back({at, seconds});
    log->events.push_back({at, static_cast<double>(pool.events[b])});
    ++cursor->batches;
  }
}

/// Runs every connection on its own thread. Connection c owns sessions
/// c, c + connections, ...; it visits them round robin, one request each,
/// until `keep_going(cursor of the visited session)` turns false for all.
std::vector<ConnectionLog> RunConnections(
    Rig* rig, const ServeSizes& sizes, const std::vector<SessionPool>& pools,
    std::vector<Cursor>* cursors,
    const std::function<bool(const Cursor&)>& keep_going) {
  const auto phase_start = Clock::now();
  std::vector<ConnectionLog> logs(sizes.connections);
  std::vector<std::thread> threads;
  for (int c = 0; c < sizes.connections; ++c) {
    threads.emplace_back([&, c] {
      bool any = true;
      while (any) {
        any = false;
        for (int s = c; s < sizes.sessions; s += sizes.connections) {
          Cursor& cursor = (*cursors)[s];
          if (!keep_going(cursor)) continue;
          any = true;
          SendNext(rig->client(c), pools[s], sizes, phase_start, &cursor,
                   &logs[c]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

/// What a query answered for one session.
struct Answer {
  std::string text;
  int64_t executions = -1;
};

/// The current model text and execution count of every session, through
/// the wire.
std::vector<Answer> QueryAll(Rig* rig, const ServeSizes& sizes,
                             const std::vector<SessionPool>& pools,
                             int64_t* attempted, int64_t* failed) {
  std::vector<Answer> answers(sizes.sessions);
  for (int s = 0; s < sizes.sessions; ++s) {
    ++*attempted;
    auto r = rig->client(s % sizes.connections)
                 .Call(FrameType::kQuery, pools[s].name);
    if (!r.ok() || r->code != ResponseCode::kOk) {
      ++*failed;
      continue;
    }
    answers[s] = {r->body, r->session_executions};
  }
  return answers;
}

/// The samples of every connection of one phase, cut into windows.
struct Windowed {
  std::vector<std::vector<double>> ack_s, query_s, events;
  size_t acks = 0, queries = 0;
  double window_s = 0.0;

  /// Events acknowledged per second in each window (0 in a window without
  /// acks), median over windows.
  double EventsPerSecond() const {
    std::vector<double> rates;
    for (const std::vector<double>& window : events) {
      double sum = 0.0;
      for (double e : window) sum += e;
      rates.push_back(sum / window_s);
    }
    return Median(rates);
  }
  static size_t MinCount(const std::vector<std::vector<double>>& windows) {
    size_t n = SIZE_MAX;
    for (const auto& w : windows) n = std::min(n, w.size());
    return n;
  }
  static size_t MaxCount(const std::vector<std::vector<double>>& windows) {
    size_t n = 0;
    for (const auto& w : windows) n = std::max(n, w.size());
    return n;
  }
};

Windowed Cut(const std::vector<ConnectionLog>& logs, double wall,
             int windows) {
  std::vector<Stamped> ack_s, query_s, events;
  for (const ConnectionLog& log : logs) {
    ack_s.insert(ack_s.end(), log.ack_s.begin(), log.ack_s.end());
    query_s.insert(query_s.end(), log.query_s.begin(), log.query_s.end());
    events.insert(events.end(), log.events.begin(), log.events.end());
  }
  Windowed out;
  out.ack_s = ByWindow(ack_s, wall, windows);
  out.query_s = ByWindow(query_s, wall, windows);
  out.events = ByWindow(events, wall, windows);
  out.acks = ack_s.size();
  out.queries = query_s.size();
  out.window_s = wall / windows;
  return out;
}

struct Standalone {
  double encode_s = 0, decode_s = 0, absorb_s = 0, append_s = 0;
  double query_s = 0, replay_s = 0;
  double journal_bytes_per_event = 0;
  int64_t batches = 0;
  int64_t journal_bytes = 0, journal_events = 0;
};

/// Times each layer's public entry point alone over one pass of every
/// session's pool (the same batch stream the server receives).
bool MeasureStandalone(const std::vector<SessionPool>& pools,
                       const std::string& scratch,
                       const std::string& image_dir, int replays,
                       Standalone* out) {
  if (!ResetDir(scratch)) return false;
  int64_t queries = 0;
  for (const SessionPool& pool : pools) {
    procmine::serve::SessionSpec spec;
    auto journal = procmine::serve::SessionJournal::Create(
        procmine::serve::JournalPathFor(scratch, pool.name), pool.name, spec,
        /*fsync_appends=*/false);
    if (!journal.ok()) return false;
    const std::string path = journal->path();
    const int64_t header_bytes =
        static_cast<int64_t>(std::filesystem::file_size(path));
    procmine::IncrementalMiner miner;
    procmine::serve::Session session(pool.name, spec);
    for (size_t b = 0; b < pool.batches.size(); ++b) {
      auto t = Clock::now();
      std::string body = procmine::EncodeBinaryLog(pool.batches[b]);
      procmine::serve::RequestFrame frame;
      frame.type = FrameType::kBatch;
      frame.seq = b + 1;
      frame.session = pool.name;
      frame.body = body;
      const std::string wire = procmine::serve::EncodeRequest(frame);
      out->encode_s += SecondsSince(t);

      t = Clock::now();
      auto decoded = procmine::DecodeBinaryLog(body);
      out->decode_s += SecondsSince(t);
      if (!decoded.ok()) return false;

      t = Clock::now();
      const procmine::Status added = miner.AddLog(*decoded);
      out->absorb_s += SecondsSince(t);
      if (!added.ok()) return false;

      t = Clock::now();
      const procmine::Status appended = journal->AppendBatch(
          body, static_cast<int64_t>(decoded->num_executions()), false,
          procmine::BudgetResource::kNone);
      out->append_s += SecondsSince(t);
      if (!appended.ok()) return false;

      if (session.ApplyBatch(body).code != ResponseCode::kOk) return false;
      out->journal_events += pool.events[b];
      ++out->batches;
    }
    out->journal_bytes +=
        static_cast<int64_t>(std::filesystem::file_size(path)) - header_bytes;
    const auto t = Clock::now();
    auto text = session.CanonicalModelText();
    out->query_s += SecondsSince(t);
    if (!text.ok()) return false;
    ++queries;
  }
  const double batches = static_cast<double>(out->batches);
  out->encode_s /= batches;
  out->decode_s /= batches;
  out->absorb_s /= batches;
  out->append_s /= batches;
  out->query_s /= static_cast<double>(queries);
  out->journal_bytes_per_event = static_cast<double>(out->journal_bytes) /
                                 static_cast<double>(out->journal_events);

  // Journal replay over the crash image, records decoded but not applied.
  for (int r = 0; r < replays; ++r) {
    const auto t = Clock::now();
    for (const auto& entry : std::filesystem::directory_iterator(image_dir)) {
      auto summary = procmine::serve::ReplayJournal(
          entry.path().string(),
          [](const std::string&, const procmine::serve::SessionSpec&) {
            return procmine::Status::OK();
          },
          [](const procmine::serve::JournalRecord&) {
            return procmine::Status::OK();
          });
      if (!summary.ok()) return false;
    }
    out->replay_s += SecondsSince(t);
  }
  out->replay_s /= replays;
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  return true;
}

}  // namespace

Outcome RunServeMixed(const RunConfig& config) {
  const ServeSizes sizes = SizesFor(config);
  Outcome out;
  out.Note(StrFormat(
      "serve_mixed: %d sessions x %d connections (closed loop), batches of "
      "%d executions from a pool of %d per session, every %d-th request a "
      "query, %d-activity graph per session, %d server pool threads, journal "
      "fsync off, execution seed %llu",
      sizes.sessions, sizes.connections, sizes.batch_executions,
      sizes.pool_batches, sizes.query_every, sizes.activities,
      sizes.server_threads, static_cast<unsigned long long>(config.seed)));

  const std::string journal_dir = config.work_dir + "/journal";
  const std::string image_dir = config.work_dir + "/image";
  // work_dir is relative to the working directory, which keeps the socket
  // path under the 107-byte limit of a unix socket however deep the
  // checkout lives.
  const std::string socket_path = config.work_dir + "/serve.sock";
  procmine::serve::ServeOptions options;
  options.journal_dir = journal_dir;
  options.threads = sizes.server_threads;
  options.fsync_journal = false;

  std::vector<SessionPool> pools;
  Rig rig;
  const int setups = config.trace ? 1 : 9;
  const double setup_s = MedianSetupSeconds(setups, [&](int i) -> double {
    if (i > 0) rig.Stop();
    if (!ResetDir(journal_dir)) return -1.0;
    const auto start = Clock::now();
    if (!MakePools(config, sizes, &pools)) return -1.0;
    if (!rig.Start(options, socket_path, sizes.connections)) return -1.0;
    for (int s = 0; s < sizes.sessions; ++s) {
      auto r = rig.client(s % sizes.connections)
                   .Call(FrameType::kOpen, pools[s].name);
      if (!r.ok() || r->code != ResponseCode::kOk) return -1.0;
    }
    return SecondsSince(start);
  });
  out.attempted = 1;
  if (setup_s < 0) {
    out.Fail("set-up failed", 1);
    return out;
  }

  // Warm-up: one pass over every pool, then the crash image.
  std::vector<Cursor> cursors(sizes.sessions);
  const int64_t pass = sizes.pool_batches;
  // The request cap ends the pass even if batches keep failing.
  auto warm =
      RunConnections(&rig, sizes, pools, &cursors, [&](const Cursor& c) {
        return c.batches < pass && c.requests < 4 * pass;
      });
  int64_t attempted = 0, failed = 0;
  for (const ConnectionLog& log : warm) {
    attempted += log.requests;
    failed += log.failed;
  }
  const std::vector<Answer> pre_crash =
      QueryAll(&rig, sizes, pools, &attempted, &failed);
  std::error_code ec;
  std::filesystem::remove_all(image_dir, ec);
  std::filesystem::copy(journal_dir, image_dir, ec);
  if (failed > 0 || ec) {
    out.Fail("warm-up failed", 1);
    return out;
  }

  // Timed phase(s).
  auto timed_phase = [&](double seconds, double* wall) {
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    auto logs = RunConnections(
        &rig, sizes, pools, &cursors,
        [&](const Cursor&) { return Clock::now() < deadline; });
    *wall = SecondsSince(start);
    return logs;
  };
  double wall = 0.0, traced_wall = 0.0;
  std::vector<ConnectionLog> timed = timed_phase(config.seconds, &wall);
  std::vector<ConnectionLog> traced;
  if (config.trace) {
    procmine::obs::SetTracingEnabled(true);
    procmine::obs::SetMetricsEnabled(true);
    traced = timed_phase(config.seconds, &traced_wall);
    procmine::obs::SetTracingEnabled(false);
    procmine::obs::SetMetricsEnabled(false);
    procmine::obs::TraceRecorder::Get().Reset();
  }
  const double peak_rss_mb = PeakRssMb();

  for (const auto* phase : {&timed, &traced}) {
    for (const ConnectionLog& log : *phase) {
      attempted += log.requests;
      failed += log.failed;
    }
  }
  const int windows = std::clamp(static_cast<int>(config.seconds), 1, kWindows);
  const Windowed all = Cut(timed, wall, windows);

  // Correctness: each session's final model and execution count equal
  // IncrementalMiner fed that session's acked batches alone, in order.
  const std::vector<Answer> final_answers =
      QueryAll(&rig, sizes, pools, &attempted, &failed);
  rig.Stop();
  for (int s = 0; s < sizes.sessions; ++s) {
    procmine::IncrementalMiner oracle;
    const SessionPool& pool = pools[s];
    bool ok = true;
    for (int64_t b = 0; b < cursors[s].batches && ok; ++b) {
      ok = oracle.AddLog(pool.batches[b % pool.batches.size()]).ok();
    }
    auto graph = oracle.CurrentGraph();
    if (!ok || !graph.ok() || CanonicalText(*graph) != final_answers[s].text ||
        static_cast<int64_t>(oracle.num_executions()) !=
            final_answers[s].executions) {
      ++failed;
      out.Fail(pool.name + ": served model differs from IncrementalMiner "
                           "fed the session alone",
               0);
    }
  }

  // Recovery: a fresh core over a copy of the crash image, until every
  // session answers a query; each must answer its pre-crash model and
  // execution count.
  std::vector<double> recover_s;
  const std::string recover_dir = config.work_dir + "/recover";
  for (int r = 0; r < sizes.recoveries; ++r) {
    ++attempted;
    std::filesystem::remove_all(recover_dir, ec);
    std::filesystem::copy(image_dir, recover_dir, ec);
    procmine::serve::ServeOptions recover_options = options;
    recover_options.journal_dir = recover_dir;
    const auto start = Clock::now();
    auto core =
        std::make_unique<procmine::serve::ServeCore>(recover_options);
    auto restored = core->RecoverFromJournals();
    bool ok = !ec && restored.ok() && *restored == sizes.sessions;
    for (int s = 0; s < sizes.sessions && ok; ++s) {
      procmine::serve::RequestFrame query;
      query.type = FrameType::kQuery;
      query.seq = static_cast<uint64_t>(s) + 1;
      query.session = pools[s].name;
      const ResponseFrame answer = core->Handle(query);
      ok = answer.code == ResponseCode::kOk &&
           answer.body == pre_crash[s].text &&
           answer.session_executions == pre_crash[s].executions;
    }
    recover_s.push_back(SecondsSince(start));
    (void)core->Drain();
    core.reset();
    if (!ok) {
      ++failed;
      out.Fail("a recovered session's model differs from its pre-crash "
               "model",
               0);
    }
  }

  out.attempted = attempted;
  out.failed = failed;
  out.correct = out.correct && failed == 0;
  int64_t timed_batches = 0;
  for (int s = 0; s < sizes.sessions; ++s) timed_batches += cursors[s].batches;
  out.Note(StrFormat("requests: %lld attempted, %lld failed; %zu acks and "
                     "%zu queries timed; %lld batches acked in all",
                     static_cast<long long>(attempted),
                     static_cast<long long>(failed), all.acks, all.queries,
                     static_cast<long long>(timed_batches)));

  if (!config.trace) {
    out.Add("setup_s", setup_s, "s");
    out.Add("events_per_s", all.EventsPerSecond(), "1/s");
    out.Add("peak_rss_mb", peak_rss_mb, "MiB");
    out.Add("ack_p50_ms", MedianOfWindowMedians(all.ack_s) * 1e3, "ms");
    out.Add("query_p50_ms", MedianOfWindowMedians(all.query_s) * 1e3, "ms");
    out.Add("recover_s", Median(recover_s), "s");
    out.Note(StrFormat(
        "events_per_s, ack_p50_ms, query_p50_ms: median over %d windows of "
        "%.3f s; acks: %zu samples, %zu to %zu per window; queries: %zu "
        "samples, %zu to %zu per window",
        windows, all.window_s, all.acks, all.MinCount(all.ack_s),
        all.MaxCount(all.ack_s), all.queries, all.MinCount(all.query_s),
        all.MaxCount(all.query_s)));
    out.Note(StrFormat("recover_s: median of %zu recoveries of a %d-session "
                       "crash image; setup_s: median of %d set-ups",
                       recover_s.size(), sizes.sessions, setups));
    return out;
  }

  Standalone layers;
  if (!MeasureStandalone(pools, config.work_dir + "/standalone", image_dir,
                         sizes.recoveries, &layers)) {
    out.Fail("standalone layer measurement failed", 1);
    return out;
  }
  std::map<std::string, double> values;
  std::map<std::string, std::string> bases;
  const std::string per_batch = StrFormat(
      "per batch, mean of %lld", static_cast<long long>(layers.batches));
  values["serve.encode.self_s"] = layers.encode_s;
  values["log.binary_decode.self_s"] = layers.decode_s;
  values["mine.absorb.self_s"] = layers.absorb_s;
  values["serve.journal.append.self_s"] = layers.append_s;
  for (const char* name : {"serve.encode.self_s", "log.binary_decode.self_s",
                           "mine.absorb.self_s",
                           "serve.journal.append.self_s"}) {
    bases[name] = per_batch;
  }
  values["serve.journal.bytes_per_event"] = layers.journal_bytes_per_event;
  bases["serve.journal.bytes_per_event"] =
      StrFormat("journal %lld B / events %lld",
                static_cast<long long>(layers.journal_bytes),
                static_cast<long long>(layers.journal_events));
  values["serve.query.self_s"] = layers.query_s;
  bases["serve.query.self_s"] =
      StrFormat("per query at end state, mean of %d sessions", sizes.sessions);
  std::vector<double> acks, queries;
  for (const std::vector<double>& window : all.ack_s) {
    acks.insert(acks.end(), window.begin(), window.end());
  }
  for (const std::vector<double>& window : all.query_s) {
    queries.insert(queries.end(), window.begin(), window.end());
  }
  const double ack_mean = Mean(acks);
  values["serve.wait_s"] =
      ack_mean - layers.decode_s - layers.absorb_s - layers.append_s;
  bases["serve.wait_s"] =
      StrFormat("mean ack %.6f s over %zu acks - decode - absorb - append",
                ack_mean, acks.size());
  values["serve.replay.self_s"] = layers.replay_s;
  bases["serve.replay.self_s"] =
      StrFormat("per crash image (%d journals), mean of %d", sizes.sessions,
                sizes.recoveries);
  values["unattributed_s"] = 0.0;
  bases["unattributed_s"] = "serve.wait_s is the remainder of an ack";
  const double untraced_eps = all.EventsPerSecond();
  const double traced_eps =
      Cut(traced, traced_wall, windows).EventsPerSecond();
  values["trace.overhead_frac"] = untraced_eps / traced_eps - 1.0;
  bases["trace.overhead_frac"] =
      StrFormat("untraced %.0f events/s / traced %.0f events/s, each the "
                "median over %d windows",
                untraced_eps, traced_eps, windows);
  // End-to-end tails, over the whole untraced phase of this run.
  values["ack_p99_ms"] = Percentile(acks, 0.99) * 1e3;
  bases["ack_p99_ms"] =
      StrFormat("untraced, nearest rank over %zu acks", acks.size());
  values["query_p99_ms"] = Percentile(queries, 0.99) * 1e3;
  bases["query_p99_ms"] =
      StrFormat("untraced, nearest rank over %zu queries", queries.size());
  EmitPerLayer(values, bases, &out);
  return out;
}

}  // namespace perfbench
