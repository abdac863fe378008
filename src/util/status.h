// Status: error propagation without exceptions, in the Arrow/RocksDB idiom.
//
// Functions that can fail return a Status (or a Result<T>, see result.h).
// A Status is cheap to pass around in the OK case (a single pointer-sized
// field is empty) and carries a code plus a human-readable message on error.

#ifndef PROCMINE_UTIL_STATUS_H_
#define PROCMINE_UTIL_STATUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace procmine {

/// Machine-readable classification of an error.
enum class StatusCode : int8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kIOError = 6,
  kInternal = 7,
  kUnimplemented = 8,
  kDataLoss = 9,
};

/// Returns a stable human-readable name for `code` (e.g. "Invalid argument").
std::string_view StatusCodeToString(StatusCode code);

/// Outcome of an operation: OK, or an error code with a message.
///
/// Usage:
///   Status DoWork();
///   PROCMINE_RETURN_NOT_OK(DoWork());
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message. `code` must not be
  /// kOk; use the default constructor (or OK()) for success.
  Status(StatusCode code, std::string message);

  /// Named constructor for the OK status.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status AlreadyExists(std::string message) {
    return Status(StatusCode::kAlreadyExists, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status IOError(std::string message) {
    return Status(StatusCode::kIOError, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status Unimplemented(std::string message) {
    return Status(StatusCode::kUnimplemented, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }

  /// True iff the operation succeeded.
  bool ok() const { return state_ == nullptr; }

  /// The status code; kOk iff ok().
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }

  /// The error message; empty iff ok().
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->message;
  }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsIOError() const { return code() == StatusCode::kIOError; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  /// Aborts the process with the status message if not ok(). For use at
  /// points where failure is a programming error. The ok() test is inline,
  /// so unwrapping a successful Result costs no call.
  void Abort() const {
    if (!ok()) AbortNow(std::string_view());
  }
  void Abort(std::string_view context) const {
    if (!ok()) AbortNow(context);
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code() == b.code() && a.message() == b.message();
  }

 private:
  [[noreturn]] void AbortNow(std::string_view context) const;

  struct State {
    StatusCode code;
    std::string message;
  };
  // nullptr means OK; keeps sizeof(Status) == sizeof(void*) and copy cheap
  // on the success path.
  std::shared_ptr<const State> state_;
};

}  // namespace procmine

/// Propagates an error status from the current function.
#define PROCMINE_RETURN_NOT_OK(expr)                    \
  do {                                                  \
    ::procmine::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                          \
  } while (false)

/// Aborts if `expr` is not OK. For tests and main()s.
#define PROCMINE_CHECK_OK(expr)                         \
  do {                                                  \
    ::procmine::Status _st = (expr);                    \
    _st.Abort(#expr);                                   \
  } while (false)

#endif  // PROCMINE_UTIL_STATUS_H_
