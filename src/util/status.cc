#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace procmine {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kDataLoss:
      return "Data loss";
  }
  return "Unknown code";
}

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    state_ = std::make_shared<const State>(State{code, std::move(message)});
  }
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result(StatusCodeToString(code()));
  result += ": ";
  result += message();
  return result;
}

void Status::AbortNow(std::string_view context) const {
  if (context.empty()) {
    std::fprintf(stderr, "procmine: fatal status: %s\n", ToString().c_str());
  } else {
    std::fprintf(stderr, "procmine: fatal status in '%.*s': %s\n",
                 static_cast<int>(context.size()), context.data(),
                 ToString().c_str());
  }
  std::abort();
}

}  // namespace procmine
