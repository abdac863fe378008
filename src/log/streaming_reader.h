// StreamLog: bounded-memory scan of very large text logs.
//
// The paper's 10000-execution logs ran to 107 MB; materializing an EventLog
// needs all of it in memory. This scan walks the text one execution group
// at a time and invokes a callback as each process instance completes,
// holding only the open instance — this is how the IncrementalMiner, the
// drift monitor and `mine --spill-dir` consume logs that never fit in
// memory.
//
// It reads lines with the batch parser's ScanTextLine and pairs each
// instance with the batch assembler's InstancePairer, so a line or an
// execution is accepted, rejected and worded exactly as LogReader::ParseText
// would. Two things differ from the batch path:
//
//  * all events of one process instance must be contiguous in the input
//    (LogWriter and the engine write them so); an instance that reappears
//    after another began is rejected (error class non_contiguous_instance);
//  * executions are delivered in file order, not in instance-name order,
//    and dictionary ids are assigned in that order.

#ifndef PROCMINE_LOG_STREAMING_READER_H_
#define PROCMINE_LOG_STREAMING_READER_H_

#include <functional>
#include <string>
#include <string_view>

#include "log/event_log.h"
#include "log/recovery.h"
#include "util/result.h"

namespace procmine {

/// Callback invoked per completed execution; ids refer to `dict`, which
/// grows as new activity names appear. Return a non-OK status to abort the
/// scan (propagated to the caller).
using ExecutionCallback =
    std::function<Status(const Execution&, const ActivityDictionary& dict)>;

/// Statistics of one streaming pass.
struct StreamingStats {
  int64_t executions = 0;
  int64_t events = 0;
  int64_t lines = 0;
};

/// Recovery knobs for the streaming scan.
struct StreamOptions {
  /// Under kSkip / kQuarantine: malformed lines are dropped (the text-line
  /// error classes of log/text_line.h, plus non_contiguous_instance), and
  /// an execution whose events do not pair is dropped without its callback
  /// firing (end_without_start, start_without_end).
  RecoveryPolicy recovery = RecoveryPolicy::kStrict;
  IngestionReport* report = nullptr;
};

/// Scans `text` (text event format) and invokes `callback` per execution.
/// `text` must stay alive for the call.
Result<StreamingStats> StreamLog(std::string_view text,
                                 const ExecutionCallback& callback,
                                 const StreamOptions& options = {});

/// File variant: memory-maps `path` and streams the mapping (the OS pages
/// it in and out, so memory stays bounded even for logs far larger than
/// RAM).
Result<StreamingStats> StreamLogFile(const std::string& path,
                                     const ExecutionCallback& callback,
                                     const StreamOptions& options = {});

}  // namespace procmine

#endif  // PROCMINE_LOG_STREAMING_READER_H_
