#include "log/recovery.h"

#include <algorithm>

#include "util/atomic_file.h"
#include "util/strings.h"

namespace procmine {

std::string_view RecoveryPolicyName(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kStrict:
      return "strict";
    case RecoveryPolicy::kSkip:
      return "skip";
    case RecoveryPolicy::kQuarantine:
      return "quarantine";
  }
  return "strict";
}

Result<RecoveryPolicy> ParseRecoveryPolicy(std::string_view name) {
  if (name == "strict") return RecoveryPolicy::kStrict;
  if (name == "skip") return RecoveryPolicy::kSkip;
  if (name == "quarantine") return RecoveryPolicy::kQuarantine;
  return Status::InvalidArgument(
      StrFormat("unknown recovery policy '%s' (want strict, skip, or "
                "quarantine)",
                std::string(name).c_str()));
}

void IngestionReport::AddErrorClass(std::string_view error_class,
                                    int64_t count) {
  auto it = std::lower_bound(
      error_classes.begin(), error_classes.end(), error_class,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it != error_classes.end() && it->first == error_class) {
    it->second += count;
  } else {
    error_classes.insert(it, {std::string(error_class), count});
  }
}

void IngestionReport::SkipLine(RecoveryPolicy policy,
                               std::string_view error_class,
                               int64_t byte_offset, int64_t line,
                               std::string_view raw) {
  ++lines_skipped;
  AddErrorClass(error_class);
  if (policy != RecoveryPolicy::kQuarantine) return;
  QuarantineRecord record;
  record.byte_offset = byte_offset;
  record.line = line;
  record.error_class = std::string(error_class);
  record.raw = std::string(raw);
  quarantined.push_back(std::move(record));
}

void IngestionReport::Merge(const IngestionReport& other) {
  lines_total += other.lines_total;
  events_parsed += other.events_parsed;
  lines_skipped += other.lines_skipped;
  executions_dropped += other.executions_dropped;
  salvage_attempted = salvage_attempted || other.salvage_attempted;
  salvaged_executions += other.salvaged_executions;
  salvage_dropped_bytes += other.salvage_dropped_bytes;
  for (const auto& [error_class, count] : other.error_classes) {
    AddErrorClass(error_class, count);
  }
  quarantined.insert(quarantined.end(), other.quarantined.begin(),
                     other.quarantined.end());
}

namespace {

// Escapes tabs/newlines/backslashes so each quarantine record stays on one
// line and the raw bytes round-trip.
void AppendEscapedRaw(std::string* out, std::string_view raw) {
  for (char c : raw) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        out->push_back(c);
    }
  }
}

}  // namespace

std::string IngestionReport::QuarantineText() const {
  std::string out = "# procmine quarantine v1\n";
  out += "# offset\tline\tclass\traw\n";
  for (const QuarantineRecord& record : quarantined) {
    out += StrFormat("%lld\t%lld\t", static_cast<long long>(record.byte_offset),
                     static_cast<long long>(record.line));
    out += record.error_class;
    out.push_back('\t');
    AppendEscapedRaw(&out, record.raw);
    out.push_back('\n');
  }
  return out;
}

std::string IngestionReport::SummaryText() const {
  if (!AnyLoss()) return "";
  std::string out;
  auto classes_suffix = [this]() {
    if (error_classes.empty()) return std::string();
    std::string s = " (";
    bool first = true;
    for (const auto& [error_class, count] : error_classes) {
      if (!first) s += ", ";
      first = false;
      s += StrFormat("%s: %lld", error_class.c_str(),
                     static_cast<long long>(count));
    }
    s += ")";
    return s;
  };
  if (lines_skipped > 0 || executions_dropped > 0) {
    out += StrFormat("recovery=%s: skipped %lld lines, dropped %lld executions",
                     std::string(RecoveryPolicyName(policy)).c_str(),
                     static_cast<long long>(lines_skipped),
                     static_cast<long long>(executions_dropped));
    out += classes_suffix();
    out.push_back('\n');
  }
  if (salvage_attempted) {
    out += StrFormat(
        "salvage: recovered %lld executions, discarded %lld trailing bytes\n",
        static_cast<long long>(salvaged_executions),
        static_cast<long long>(salvage_dropped_bytes));
  }
  return out;
}

Status WriteQuarantineFile(const std::string& path,
                           const IngestionReport& report) {
  return WriteFileAtomic(path, report.QuarantineText());
}

}  // namespace procmine
