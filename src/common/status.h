// Lightweight error-handling vocabulary used across UStore.
//
// We use explicit Status / Result<T> values rather than exceptions on
// control-plane paths: failures (host crash, fabric conflict, command
// timeout) are expected outcomes that callers must inspect, not
// exceptional conditions.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace ustore {

// Canonical error codes, loosely modelled after absl::StatusCode.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kFailedPrecondition,
  kUnavailable,
  kDeadlineExceeded,
  kConflict,       // fabric scheduling conflict (Algorithm 1 ErrInfo)
  kAborted,        // command rolled back
  kResourceExhausted,
  kInternal,
  kDataLoss,       // verified corruption: read-back disagrees with written data
};

std::string_view StatusCodeName(StatusCode code);

// A success-or-error value. Copying one never allocates: an error keeps
// its message in one immutable string that every copy shares (a rejected
// batch hands the same Status to each of its members), and an empty
// message is no string at all.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty() ? nullptr
                                 : std::make_shared<const std::string>(
                                       std::move(message))) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const {
    return message_ != nullptr ? *message_ : EmptyMessage();
  }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  static const std::string& EmptyMessage();

  StatusCode code_ = StatusCode::kOk;
  std::shared_ptr<const std::string> message_;  // null when empty
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

inline Status NotFoundError(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status AlreadyExistsError(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status InvalidArgumentError(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status FailedPreconditionError(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status UnavailableError(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status DeadlineExceededError(std::string msg) {
  return {StatusCode::kDeadlineExceeded, std::move(msg)};
}
inline Status ConflictError(std::string msg) {
  return {StatusCode::kConflict, std::move(msg)};
}
inline Status AbortedError(std::string msg) {
  return {StatusCode::kAborted, std::move(msg)};
}
inline Status ResourceExhaustedError(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status InternalError(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}
inline Status DataLossError(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}

// A value-or-error result. Accessing value() on an error aborts, so call
// sites must check ok() first (enforced in debug builds).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : rep_(std::move(value)) {}           // NOLINT(google-explicit-constructor)
  Result(Status status) : rep_(std::move(status)) {     // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(rep_).ok() &&
           "Result constructed from OK status must carry a value");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(rep_);
  }

  T value_or(T fallback) const {
    if (ok()) return std::get<T>(rep_);
    return fallback;
  }

 private:
  std::variant<T, Status> rep_;
};

// Propagate-on-error helpers.
#define USTORE_RETURN_IF_ERROR(expr)              \
  do {                                            \
    ::ustore::Status _st = (expr);                \
    if (!_st.ok()) return _st;                    \
  } while (0)

#define USTORE_INTERNAL_CONCAT_(a, b) a##b
#define USTORE_INTERNAL_CONCAT(a, b) USTORE_INTERNAL_CONCAT_(a, b)

#define USTORE_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

#define USTORE_ASSIGN_OR_RETURN(lhs, expr) \
  USTORE_ASSIGN_OR_RETURN_IMPL(            \
      USTORE_INTERNAL_CONCAT(_ustore_result_, __LINE__), lhs, expr)

}  // namespace ustore
