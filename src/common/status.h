// Error taxonomy for the fail-safe serving layer.
//
// The serving contract (docs/OPERATIONS.md, "Failure modes and degraded
// serving") is that a BLAS call never crashes the process: it serves the
// trained model, or a documented degraded mode, and it tells the caller
// which. That requires failures to be *values* the caller can branch on
// instead of a zoo of bare std::runtime_error strings: artefact loading
// returns Expected<T>, the CLI maps ErrorCode to distinct process exit
// codes, and health checks can distinguish "config missing" (reinstall)
// from "config corrupt" (bad deploy) from "internal bug" (page someone).
//
// Expected<T> is the subset of C++23 std::expected this codebase needs:
// a tagged union of a value and an Error, move-friendly so move-only
// payloads (AdsalaGemm holds a unique_ptr model) work unchanged.
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace adsala {

/// Failure classes, ordered roughly by "how broken is the installation".
/// The CLI maps these 1:1 onto process exit codes (see exit_code_for), so
/// renumbering is an interface break for anything scripting adsala_cli.
enum class ErrorCode {
  kOk = 0,
  kNotFound,            ///< artefact/file missing or unreadable (I/O level)
  kParseError,          ///< file present but not syntactically decodable
  kValidationError,     ///< decodable but semantically unusable (unknown or
                        ///< repeated feature column, per-column array of the
                        ///< wrong length, empty thread grid, non-finite
                        ///< weight...)
  kResourceExhausted,   ///< allocation failure (arena growth, buffers)
  kInternal,            ///< invariant violation; a bug, not an input problem
  kUnavailable,         ///< resource temporarily unusable: shm region caught
                        ///< mid-swap, tuning daemon not reachable — retry later
  kProtocolError,       ///< malformed daemon frame: truncated request, wrong
                        ///< protocol version byte, unknown op code
  kPreconditionFailed,  ///< valid inputs, but the operation's precondition
                        ///< does not hold: rollback target not retained,
                        ///< too little telemetry to retrain on
};

/// Stable lower-case name of a code ("not_found", "parse_error", ...);
/// used in CLI stderr lines and test assertions.
inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kValidationError: return "validation_error";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kProtocolError: return "protocol_error";
    case ErrorCode::kPreconditionFailed: return "precondition_failed";
  }
  return "internal";
}

/// Process exit code for a failure class: 0 ok, 1 internal, 2 is reserved
/// for CLI usage errors, then one code per external-failure class so a
/// supervising daemon's health checks can branch without parsing stderr.
inline int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return 0;
    case ErrorCode::kNotFound: return 3;
    case ErrorCode::kParseError: return 4;
    case ErrorCode::kValidationError: return 5;
    case ErrorCode::kResourceExhausted: return 6;
    case ErrorCode::kInternal: return 1;
    case ErrorCode::kUnavailable: return 7;
    case ErrorCode::kProtocolError: return 8;
    case ErrorCode::kPreconditionFailed: return 9;
  }
  return 1;
}

/// A failure: class + human-readable, path-qualified message. Default
/// state is kOk with an empty message (useful as an out-parameter).
struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  bool ok() const { return code == ErrorCode::kOk; }
};

/// Minimal std::expected stand-in: holds a T or an Error. Construct from
/// either; query ok() before touching value()/error(). Accessing the wrong
/// side throws std::bad_variant_access — a programming error, not a
/// serving-path condition.
template <typename T>
class Expected {
 public:
  Expected(T value) : v_(std::in_place_index<0>, std::move(value)) {}
  Expected(Error error) : v_(std::in_place_index<1>, std::move(error)) {}

  bool ok() const { return v_.index() == 0; }
  explicit operator bool() const { return ok(); }

  T& value() & { return std::get<0>(v_); }
  const T& value() const& { return std::get<0>(v_); }
  T&& value() && { return std::get<0>(std::move(v_)); }

  const Error& error() const { return std::get<1>(v_); }

  /// The value, or `fallback` when this holds an error (moves the value
  /// out; convenience for degraded-mode callers).
  T value_or(T fallback) && {
    return ok() ? std::get<0>(std::move(v_)) : std::move(fallback);
  }

 private:
  std::variant<T, Error> v_;
};

}  // namespace adsala
