// Resident tuning daemon: `adsala_cli serve` answers shape -> threads
// queries over a Unix-domain socket, so short-lived processes (launchers,
// schedulers, scripting layers) get model-quality thread counts without
// paying artefact load + model setup per invocation.
//
// Wire protocol (version 1) — fixed layouts in the libips control-block
// style (SNIPPETS.md #1): every field at a compile-time offset, a version
// byte first, integers little-endian.
//
//   request (28 bytes)                    ack (8 bytes)
//   ------  -----------------            ------  ----------------------
//       0   protocol version (1)             0   protocol version (1)
//       1   op code (blas/op.h)              1   status (ErrorCode as u8)
//       2   element size in bytes            2   serving-mode rung
//       3   reserved (0)                         (0 model, 1 gemm_proxy,
//       4   x  (int64 LE)                        2 heuristic)
//      12   y  (int64 LE)                    3   reserved (0)
//      20   z  (int64 LE)                    4   threads (uint32 LE)
//
// (x, y, z) are the op's family coordinates exactly as select_threads takes
// them: GEMM (m, k, n); SYRK (n, k, -); TRSM/SYMM/TRMM (n, m, -).
//
// Error discipline: a malformed frame (short read, wrong version byte,
// unknown op code) is answered with an ack whose status is kProtocolError
// and the connection is closed — the daemon itself never exits on bad
// input. Semantically invalid values in a well-formed frame (element size
// other than 4/8, non-positive dimensions) ack kValidationError. The codec
// and the frame handler are pure functions so the test battery can fuzz
// them without sockets.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/adsala.h"

namespace adsala::daemon {

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kRequestBytes = 28;
inline constexpr std::size_t kAckBytes = 8;

/// One decoded query. `op_code` is kept raw (not blas::OpKind) because an
/// unknown code must survive decoding long enough to be rejected.
struct Request {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t op_code = 0;
  std::uint8_t elem_bytes = 4;
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::int64_t z = 0;
};

/// One answer. `status` mirrors the error taxonomy (common/status.h); the
/// threads/mode fields are meaningful only when status == kOk.
struct Ack {
  std::uint8_t version = kProtocolVersion;
  ErrorCode status = ErrorCode::kOk;
  std::uint8_t mode = 2;  ///< serving rung: 0 model, 1 proxy, 2 heuristic
  std::uint32_t threads = 0;
};

/// Serialises a request into its 28-byte frame (buf must hold kRequestBytes).
void encode_request(const Request& req, std::uint8_t* buf);

/// Serialises an ack into its 8-byte frame (buf must hold kAckBytes).
void encode_ack(const Ack& ack, std::uint8_t* buf);

/// Decodes an ack frame. kProtocolError on short frames or a version
/// mismatch — garbled server answers must not be mistaken for decisions.
Expected<Ack> decode_ack(const std::uint8_t* buf, std::size_t len);

/// The daemon's whole brain, socket-free: validates one request frame and
/// answers it against the runtime. Never throws; every failure becomes an
/// ack status per the taxonomy (kProtocolError for frame damage,
/// kValidationError for bad values in a valid frame).
Ack handle_frame(const core::AdsalaGemm& runtime, const std::uint8_t* frame,
                 std::size_t len);

struct ServeOptions {
  std::string socket_path;
  /// Exit the accept loop after this many requests (< 0 = serve forever).
  /// Counted: every frame answered, whatever its ack status (a partial
  /// frame that times out is acked protocol_error and counts), and one
  /// refused request for each connection that idles past io_timeout_ms
  /// without any answer. Not counted: a connection closed before its first
  /// byte (the live-socket probe of a second serve) and the idle tail of
  /// an answered connection. So no sequence of clients can keep a bounded
  /// daemon waiting; CI smoke tests use a small positive count.
  long max_requests = -1;
  /// Optional external stop flag, polled between connections.
  const std::atomic<bool>* stop = nullptr;
  /// Per-connection I/O deadline (recv and send; poll(2) waits only when a
  /// call would block): a client
  /// that connects and then stalls — half a frame sent, or not draining its
  /// ack — costs the single-threaded accept loop at most this long before
  /// its connection is dropped and the next client is served. <= 0 disables
  /// the deadline (blocking I/O, pre-ISSUE-10 behaviour).
  int io_timeout_ms = 2000;
  /// Install SIGTERM/SIGINT handlers for graceful drain: the in-flight
  /// request finishes, a queued follow-up frame is refused with a
  /// kUnavailable ack, the socket file is unlinked, and serve() returns
  /// kOk. Off for in-process test servers that must not touch global
  /// process signal state.
  bool handle_signals = true;
  /// Continual-retuning integration: when non-empty, probe this
  /// shared-memory region on every accepted connection, before its first
  /// frame is read. The probe (core::ShmHeaderWatch) is one stat(2) and one
  /// load of the generation word through a header mapping kept for the
  /// daemon's lifetime. Only when the region holds another publish than the
  /// one this daemon last served from (the generation moved, or the path
  /// names a new file) does it try_attach the new artefacts and hot-swap
  /// them into the runtime (AdsalaGemm::install), so that connection
  /// already gets the new answer. A region that is missing, torn, or caught
  /// mid-swap is skipped and retried at the next connection; the daemon
  /// never degrades what it is already serving because a *re*-attach failed.
  std::string reattach_shm;
};

/// Binds a Unix-domain socket at options.socket_path and serves queries
/// against `runtime` until max_requests is exhausted, *stop goes true, or a
/// drain signal (SIGTERM/SIGINT, see ServeOptions::handle_signals) arrives.
/// An existing socket file is probed before it is reclaimed: when a live
/// daemon still answers on it, serve() refuses with kPreconditionFailed
/// instead of silently stealing its traffic; only a dead socket (connect ->
/// ECONNREFUSED) is unlinked and rebound. Returns kOk on a clean exit
/// (including drain), kInternal on socket-layer failures (bind, listen).
/// Protocol errors and per-connection deadline expiries cost one client
/// connection each, never the daemon. Non-const runtime: the reattach_shm
/// option hot-swaps new generations in (queries stay lock-free).
Error serve(core::AdsalaGemm& runtime, const ServeOptions& options);

/// Client side: sends one request to a serving daemon and returns the
/// decoded ack. One connection carries one frame: the client half-closes
/// (shutdown SHUT_WR) right after sending it, so the daemon reads EOF as
/// soon as it has answered and goes on to its next client instead of
/// waiting for this one to read the ack and close. kNotFound when no
/// socket exists at the path, kUnavailable when nothing is accepting on it
/// (or the daemon does not answer within `io_timeout_ms`; <= 0 blocks
/// forever), kProtocolError on a garbled answer. Note the transport-level
/// status is distinct from ack.status — a healthy round-trip can still
/// carry a non-kOk ack.
Expected<Ack> query(const std::string& socket_path, const Request& req,
                    int io_timeout_ms = 2000);

}  // namespace adsala::daemon
