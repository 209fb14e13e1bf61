#ifndef TDP_COMMON_STATUS_H_
#define TDP_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace tdp {

/// Machine-readable classification of an error, modeled after the
/// RocksDB/Arrow status idiom. `kOk` is the only non-error code.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kTypeError,
  kParseError,
  kBindError,
  kExecutionError,
  kCancelled,
  /// Load shedding: the serving front end refused the request (admission
  /// queue full). Retryable after backoff; the engine sheds instead of
  /// collapsing.
  kResourceExhausted,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// Result of an operation that can fail without a payload.
///
/// `Status` is cheap to copy in the OK case (no allocation) and carries a
/// code plus message otherwise. All user-facing TDP entry points (SQL
/// parsing, binding, planning, execution, ingestion, UDF registration)
/// report failures through `Status`/`StatusOr`; internal invariant
/// violations use `TDP_CHECK` instead.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Propagates a non-OK `Status` from the evaluated expression.
#define TDP_RETURN_NOT_OK(expr)              \
  do {                                       \
    ::tdp::Status _tdp_status = (expr);      \
    if (!_tdp_status.ok()) return _tdp_status; \
  } while (false)

}  // namespace tdp

#endif  // TDP_COMMON_STATUS_H_
