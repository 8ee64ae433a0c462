#include "common/status.h"

namespace ustore {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kConflict: return "CONFLICT";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kDataLoss: return "DATA_LOSS";
  }
  return "UNKNOWN";
}

const std::string& Status::EmptyMessage() {
  static const std::string empty;
  return empty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  if (message_ != nullptr) {
    out += ": ";
    out += *message_;
  }
  return out;
}

}  // namespace ustore
