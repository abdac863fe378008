#include "log/streaming_reader.h"

#include <cstring>
#include <numeric>

#include "log/event_assembly.h"
#include "log/name_index.h"
#include "log/text_line.h"
#include "obs/trace.h"
#include "util/mapped_file.h"
#include "util/strings.h"

namespace procmine {

namespace {

/// One streaming pass over `text`. The batch holds the scan-wide activity
/// table (views into `text`) and the events and outputs of the one open
/// instance; the pairer turns that instance into an Execution when its
/// group ends.
class StreamScan {
 public:
  StreamScan(std::string_view text, const ExecutionCallback& callback,
             const StreamOptions& options)
      : text_(text),
        callback_(callback),
        recovery_{options.recovery, options.report},
        pairer_(&batch_, &dict_) {
    if (options.report != nullptr) options.report->policy = options.recovery;
  }
  // pairer_ and the name indexes point into this object.
  StreamScan(const StreamScan&) = delete;
  StreamScan& operator=(const StreamScan&) = delete;

  Result<StreamingStats> Run() {
    std::string_view instance, activity;
    CompactEvent event;
    LineFault fault;
    const char* p = text_.data();
    const char* const end = p + text_.size();
    while (p < end) {
      const char* nl = static_cast<const char*>(
          memchr(p, '\n', static_cast<size_t>(end - p)));
      const char* const line_end = nl != nullptr ? nl : end;
      const char* const line_begin = p;
      p = nl != nullptr ? nl + 1 : end;
      ++stats_.lines;
      if (recovery_.report != nullptr) ++recovery_.report->lines_total;
      switch (ScanTextLine(line_begin, line_end, &instance, &activity, &event,
                           &batch_.outputs, &fault)) {
        case LineKind::kNoEvent:
          continue;
        case LineKind::kMalformed:
          PROCMINE_RETURN_NOT_OK(
              SkipOrFail(fault.error_class, fault.message, line_begin,
                         line_end));
          continue;
        case LineKind::kEvent:
          break;
      }
      if (!open_ || instance != current_) {
        if (finished_.Find(instance) >= 0) {
          batch_.outputs.resize(event.output_begin);
          PROCMINE_RETURN_NOT_OK(SkipOrFail(
              "non_contiguous_instance",
              StrFormat("events of instance '%s' are not contiguous",
                        std::string(instance).c_str()),
              line_begin, line_end));
          continue;
        }
        PROCMINE_RETURN_NOT_OK(FinishCurrent());
        // Only this line's outputs are left in the pool: move them to the
        // front.
        batch_.outputs.erase(batch_.outputs.begin(),
                             batch_.outputs.begin() + event.output_begin);
        event.output_begin = 0;
        current_ = instance;
        open_ = true;
      }
      event.activity = activity_ids_.Intern(activity);
      batch_.events.push_back(event);
      ++stats_.events;
      if (recovery_.report != nullptr) ++recovery_.report->events_parsed;
    }
    PROCMINE_RETURN_NOT_OK(FinishCurrent());
    return stats_;
  }

 private:
  /// A malformed line: kStrict fails the scan with the batch parser's
  /// "line N: " wording; otherwise the line is counted (and, under
  /// kQuarantine, captured) and the scan goes on.
  Status SkipOrFail(std::string_view error_class, const std::string& message,
                    const char* line_begin, const char* line_end) {
    if (recovery_.policy == RecoveryPolicy::kStrict) {
      return Status::InvalidArgument(
          StrFormat("line %lld: %s", static_cast<long long>(stats_.lines),
                    message.c_str()));
    }
    if (recovery_.report != nullptr) {
      recovery_.report->SkipLine(
          recovery_.policy, error_class, line_begin - text_.data(),
          stats_.lines,
          std::string_view(line_begin,
                           static_cast<size_t>(line_end - line_begin)));
    }
    return Status::OK();
  }

  /// Pairs the open instance and hands it to the callback (unless recovery
  /// dropped it). The pool keeps any outputs pooled after its events.
  Status FinishCurrent() {
    if (!open_) return Status::OK();
    open_ = false;
    finished_.Intern(current_);
    order_.resize(batch_.events.size());
    std::iota(order_.begin(), order_.end(), 0);
    Execution exec;
    Result<bool> kept = pairer_.Pair(current_, &order_, recovery_, &exec);
    batch_.events.clear();
    if (!kept.ok()) return kept.status();
    if (!*kept) return Status::OK();
    ++stats_.executions;
    return callback_(exec, dict_);
  }

  const std::string_view text_;
  const ExecutionCallback& callback_;
  const AssemblyRecovery recovery_;
  StreamingStats stats_;
  ActivityDictionary dict_;
  CompactEventBatch batch_;
  NameIndex activity_ids_{&batch_.activity_names};
  InstancePairer pairer_;
  std::vector<uint32_t> order_;
  std::string_view current_;  // the open instance, when open_
  bool open_ = false;
  // The instances already paired; a later line naming one of them is a
  // non-contiguous instance.
  std::vector<std::string_view> finished_names_;
  NameIndex finished_{&finished_names_};
};

}  // namespace

Result<StreamingStats> StreamLog(std::string_view text,
                                 const ExecutionCallback& callback,
                                 const StreamOptions& options) {
  return StreamScan(text, callback, options).Run();
}

Result<StreamingStats> StreamLogFile(const std::string& path,
                                     const ExecutionCallback& callback,
                                     const StreamOptions& options) {
  PROCMINE_SPAN("log.stream_mmap");
  PROCMINE_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  return StreamLog(file.data(), callback, options);
}

}  // namespace procmine
