#ifndef CSOD_COMMON_STATUS_H_
#define CSOD_COMMON_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace csod {

/// Error categories used across the library. Mirrors the coarse categories
/// used by Arrow/RocksDB-style status objects: the category tells the caller
/// how to react, the message tells a human what happened.
enum class StatusCode : int8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kFailedPrecondition = 3,
  kNotFound = 4,
  kAlreadyExists = 5,
  kInternal = 6,
  kUnimplemented = 7,
  /// A bounded resource is exhausted; the caller should back off and retry
  /// later. Nothing returns it today; the value stays reserved so the codes
  /// after it keep their numbers in serve/net.h error frames.
  kResourceExhausted = 8,
  /// Data was lost or corrupted in flight or at rest (checksum mismatch,
  /// torn frame). Distinct from kInvalidArgument so transports can retry
  /// exactly the corruption case and nothing else.
  kDataLoss = 9,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Result of an operation that can fail without a value.
///
/// CSOD does not use exceptions for recoverable errors (following the
/// Arrow/RocksDB idiom from the style guides): fallible operations return
/// `Status`, fallible operations with a value return `Result<T>`.
/// `Status` is cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  /// True iff the status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// Aborts the process with the status message if not OK. Use only where
  /// failure indicates a programming error.
  void Check() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// \brief Either a value of type `T` or an error `Status`.
///
/// The value accessors abort on misuse (calling `Value()` on an error),
/// matching the library's no-exceptions policy.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (the common success path).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status. Must not be OK.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    if (this->status().ok()) {
      Status::Internal("Result constructed from OK status").Check();
    }
  }

  /// True iff a value is held.
  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// The error status, or OK when a value is held.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  /// Returns the held value; aborts if this holds an error.
  const T& Value() const& {
    CheckHasValue();
    return std::get<T>(repr_);
  }
  T& Value() & {
    CheckHasValue();
    return std::get<T>(repr_);
  }
  /// Moves the held value out (returns by value — safe to call on a
  /// temporary Result, e.g. `auto v = F().MoveValue();`).
  T MoveValue() {
    CheckHasValue();
    return std::move(std::get<T>(repr_));
  }

  /// Returns the value or `fallback` when this holds an error.
  T ValueOr(T fallback) const {
    if (ok()) return std::get<T>(repr_);
    return fallback;
  }

 private:
  void CheckHasValue() const {
    if (!ok()) std::get<Status>(repr_).Check();
  }

  std::variant<T, Status> repr_;
};

/// Propagates a non-OK status to the caller. Usable in functions returning
/// `Status` or `Result<T>`.
#define CSOD_RETURN_NOT_OK(expr)            \
  do {                                      \
    ::csod::Status _csod_st = (expr);       \
    if (!_csod_st.ok()) return _csod_st;    \
  } while (false)

/// Assigns the value of a `Result<T>` expression to `lhs`, propagating
/// errors. `lhs` must be a declaration or assignable lvalue.
#define CSOD_ASSIGN_OR_RETURN(lhs, rexpr)           \
  CSOD_ASSIGN_OR_RETURN_IMPL(                       \
      CSOD_CONCAT_NAME(_csod_result_, __LINE__), lhs, rexpr)

#define CSOD_CONCAT_NAME_INNER(a, b) a##b
#define CSOD_CONCAT_NAME(a, b) CSOD_CONCAT_NAME_INNER(a, b)
#define CSOD_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return tmp.status();               \
  lhs = tmp.MoveValue()

}  // namespace csod

#endif  // CSOD_COMMON_STATUS_H_
