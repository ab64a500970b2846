#include "adsala_daemon.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include "blas/op.h"
#include "core/shm_store.h"

namespace adsala::daemon {

namespace {

void put_u32le(std::uint8_t* buf, std::uint32_t v) {
  buf[0] = static_cast<std::uint8_t>(v);
  buf[1] = static_cast<std::uint8_t>(v >> 8);
  buf[2] = static_cast<std::uint8_t>(v >> 16);
  buf[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_i64le(std::uint8_t* buf, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(u >> (8 * i));
}

std::uint32_t get_u32le(const std::uint8_t* buf) {
  return static_cast<std::uint32_t>(buf[0]) |
         (static_cast<std::uint32_t>(buf[1]) << 8) |
         (static_cast<std::uint32_t>(buf[2]) << 16) |
         (static_cast<std::uint32_t>(buf[3]) << 24);
}

std::int64_t get_i64le(const std::uint8_t* buf) {
  std::uint64_t u = 0;
  for (int i = 0; i < 8; ++i) u |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return static_cast<std::int64_t>(u);
}

long long now_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<long long>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// poll(2)s `fd` for `events` within what is left of the deadline. Returns
/// +1 ready, 0 deadline expired, -1 hard error. EINTR restarts the wait
/// with the remaining budget (a drain signal mid-poll is detected by the
/// caller at the next frame boundary). deadline_ms < 0 = no deadline.
int wait_ready(int fd, short events, long long deadline_ms) {
  for (;;) {
    int timeout = -1;
    if (deadline_ms >= 0) {
      const long long left = deadline_ms - now_ms();
      if (left <= 0) return 0;
      timeout = static_cast<int>(left);
    }
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, timeout);
    if (n > 0) return 1;
    if (n == 0) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

/// Why an io loop stopped.
enum class IoEnd { kDone, kEof, kTimeout, kError };

struct IoResult {
  std::size_t bytes = 0;
  IoEnd end = IoEnd::kDone;
};

/// Reads exactly `len` bytes, or stops at EOF, error or deadline expiry.
/// Each recv is tried first and poll(2) runs only when it would block;
/// `poll_first` starts with the poll instead, for a read whose bytes cannot
/// be there yet (a client waiting for its ack). deadline_ms is an absolute
/// CLOCK_MONOTONIC time (< 0 = no deadline).
IoResult read_full(int fd, std::uint8_t* buf, std::size_t len,
                   long long deadline_ms, bool poll_first = false) {
  IoResult r;
  bool wait = poll_first;
  while (r.bytes < len) {
    if (wait) {
      const int ready = wait_ready(fd, POLLIN, deadline_ms);
      if (ready <= 0) {
        r.end = ready == 0 ? IoEnd::kTimeout : IoEnd::kError;
        return r;
      }
      wait = false;
    }
    const ssize_t n = ::recv(fd, buf + r.bytes, len - r.bytes, MSG_DONTWAIT);
    if (n > 0) {
      r.bytes += static_cast<std::size_t>(n);
    } else if (n == 0) {
      r.end = IoEnd::kEof;
      return r;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait = true;
    } else if (errno != EINTR) {
      r.end = IoEnd::kError;
      return r;
    }
  }
  return r;
}

/// Writes all `len` bytes: send first, poll(2) only when the socket buffer
/// is full. False on error or deadline expiry.
bool write_full(int fd, const std::uint8_t* buf, std::size_t len,
                long long deadline_ms) {
  std::size_t put = 0;
  while (put < len) {
    const ssize_t n =
        ::send(fd, buf + put, len - put, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      put += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (wait_ready(fd, POLLOUT, deadline_ms) <= 0) return false;
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

/// Absolute deadline `timeout_ms` from now; < 0 when deadlines are off.
long long deadline_after(int timeout_ms) {
  return timeout_ms > 0 ? now_ms() + timeout_ms : -1;
}

Ack protocol_error_ack() {
  Ack ack;
  ack.status = ErrorCode::kProtocolError;
  return ack;
}

}  // namespace

void encode_request(const Request& req, std::uint8_t* buf) {
  buf[0] = req.version;
  buf[1] = req.op_code;
  buf[2] = req.elem_bytes;
  buf[3] = 0;
  put_i64le(buf + 4, req.x);
  put_i64le(buf + 12, req.y);
  put_i64le(buf + 20, req.z);
}

void encode_ack(const Ack& ack, std::uint8_t* buf) {
  buf[0] = ack.version;
  buf[1] = static_cast<std::uint8_t>(ack.status);
  buf[2] = ack.mode;
  buf[3] = 0;
  put_u32le(buf + 4, ack.threads);
}

Expected<Ack> decode_ack(const std::uint8_t* buf, std::size_t len) {
  if (len < kAckBytes) {
    return Error{ErrorCode::kProtocolError,
                 "short ack frame: " + std::to_string(len) + " of " +
                     std::to_string(kAckBytes) + " bytes"};
  }
  if (buf[0] != kProtocolVersion) {
    return Error{ErrorCode::kProtocolError,
                 "ack protocol version " + std::to_string(buf[0]) +
                     " (expected " + std::to_string(kProtocolVersion) + ")"};
  }
  Ack ack;
  ack.version = buf[0];
  ack.status = static_cast<ErrorCode>(buf[1]);
  ack.mode = buf[2];
  ack.threads = get_u32le(buf + 4);
  return ack;
}

Ack handle_frame(const core::AdsalaGemm& runtime, const std::uint8_t* frame,
                 std::size_t len) {
  // Frame damage first: a truncated or version-mismatched request tells us
  // nothing reliable about what the client wanted.
  if (len < kRequestBytes) return protocol_error_ack();
  if (frame[0] != kProtocolVersion) return protocol_error_ack();
  const auto op = blas::op_from_code(frame[1]);
  if (!op.has_value()) return protocol_error_ack();

  const int elem = frame[2];
  const std::int64_t x = get_i64le(frame + 4);
  const std::int64_t y = get_i64le(frame + 12);
  const std::int64_t z = get_i64le(frame + 20);

  // A well-formed frame with unusable values is the client's semantic
  // mistake, not wire damage: distinct status so callers can tell.
  Ack ack;
  if ((elem != 4 && elem != 8) || x < 1 || y < 1 || z < 0 ||
      (*op == blas::OpKind::kGemm && z < 1)) {
    ack.status = ErrorCode::kValidationError;
    return ack;
  }

  const core::AdsalaGemm::Decision d =
      runtime.query(*op, x, y, z, elem);
  ack.status = ErrorCode::kOk;
  ack.mode = static_cast<std::uint8_t>(d.mode);
  ack.threads = static_cast<std::uint32_t>(d.threads);
  return ack;
}

namespace {

/// Graceful-drain flag, set by the SIGTERM/SIGINT handler. sig_atomic_t by
/// the book: the handler does nothing else.
volatile sig_atomic_t g_drain = 0;

void drain_handler(int) { g_drain = 1; }

/// RAII SIGTERM/SIGINT -> drain_handler installation. Deliberately without
/// SA_RESTART, so a signal mid-accept surfaces as EINTR and the loop can
/// check the flag instead of blocking in accept() forever.
class DrainSignals {
 public:
  explicit DrainSignals(bool install) : installed_(install) {
    if (!installed_) return;
    g_drain = 0;
    struct sigaction sa{};
    sa.sa_handler = drain_handler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGTERM, &sa, &old_term_);
    ::sigaction(SIGINT, &sa, &old_int_);
  }
  ~DrainSignals() {
    if (!installed_) return;
    ::sigaction(SIGTERM, &old_term_, nullptr);
    ::sigaction(SIGINT, &old_int_, nullptr);
  }
  bool draining() const { return installed_ && g_drain != 0; }

 private:
  bool installed_;
  struct sigaction old_term_{};
  struct sigaction old_int_{};
};

/// Bind-time liveness probe: does something still *answer* on the socket
/// file at `addr`? A connect that succeeds means a live daemon (refuse to
/// steal its traffic); ECONNREFUSED means a dead socket file (safe to
/// reclaim); ENOENT means nothing there at all.
enum class SocketProbe { kAbsent, kDead, kLive };

SocketProbe probe_socket(const sockaddr_un& addr) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return SocketProbe::kAbsent;  // bind will report the real error
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const int saved = errno;
  ::close(fd);
  if (rc == 0) return SocketProbe::kLive;
  if (saved == ENOENT) return SocketProbe::kAbsent;
  return SocketProbe::kDead;  // ECONNREFUSED and friends: stale file
}

/// One reattach probe (see ServeOptions::reattach_shm): when the region
/// holds another publish than the one `served` names, attach + validate the
/// new artefacts and hot-swap them in. Every failure mode is a
/// skip-and-retry, never a degradation of what is already being served.
void maybe_reattach(core::AdsalaGemm& runtime, core::ShmHeaderWatch& watch,
                    const std::string& shm_path,
                    std::optional<core::ShmStamp>* served) {
  const std::optional<core::ShmStamp> now = watch.probe();
  if (!now.has_value() || now == *served) return;
  auto attached = core::AdsalaGemm::try_attach(shm_path);
  if (!attached.ok()) return;  // torn or mid-swap: retry next connection
  const std::uint64_t version = runtime.install(attached.value().snapshot());
  *served = now;
  std::fprintf(stderr,
               "[serve] reattached %s (shm generation %llu) as snapshot "
               "version %llu\n",
               shm_path.c_str(),
               static_cast<unsigned long long>(now->generation),
               static_cast<unsigned long long>(version));
}

/// How one connection ended: the closed set of outcomes serve_connection
/// returns, and the one thing serve() counts (requests_counted).
enum class ConnEnd {
  kPeerClosed,     ///< EOF or reset at a frame boundary
  kIdleTimeout,    ///< no byte of a next frame within the io deadline
  kProtocolError,  ///< a malformed or partial frame, acked protocol_error
  kSendFailed,     ///< an ack could not be written within the deadline
  kDrain,          ///< drain signal seen at a frame boundary or mid-frame;
                   ///< a pending frame was refused with unavailable
  kBudgetSpent,    ///< max_requests reached on this connection
};

struct ConnOutcome {
  ConnEnd end = ConnEnd::kPeerClosed;
  long answered = 0;  ///< frames answered, whatever the ack status
};

/// What one connection adds toward ServeOptions::max_requests: each frame
/// it answered, or one refused request when it idled out with no answer.
/// A client that closes before sending a byte (serve's own live-socket
/// probe) and an answered connection that idles out add nothing more.
long requests_counted(const ConnOutcome& outcome) {
  if (outcome.answered == 0 && outcome.end == ConnEnd::kIdleTimeout) return 1;
  return outcome.answered;
}

/// Acks kUnavailable: the drain refusal a client retries elsewhere on.
void send_refusal(int conn, long long deadline) {
  Ack refusal;
  refusal.status = ErrorCode::kUnavailable;
  std::uint8_t out[kAckBytes];
  encode_ack(refusal, out);
  (void)write_full(conn, out, kAckBytes, deadline);
}

/// Answers frames on one accepted connection until it ends. A connection
/// can stream several frames; a malformed frame acks kProtocolError and
/// ends it (the stream framing is gone). Each frame (recv + send) runs
/// under its own io_timeout_ms deadline, so a wedged client costs one
/// timeout. `budget` caps the answers (< 0 = no cap).
ConnOutcome serve_connection(const core::AdsalaGemm& runtime, int conn,
                             int io_timeout_ms, long budget,
                             const DrainSignals& drain) {
  ConnOutcome outcome;
  for (;;) {
    if (budget >= 0 && outcome.answered >= budget) {
      outcome.end = ConnEnd::kBudgetSpent;
      return outcome;
    }
    const long long deadline = deadline_after(io_timeout_ms);
    std::uint8_t frame[kRequestBytes];
    const IoResult in = read_full(conn, frame, kRequestBytes, deadline);
    if (in.bytes == 0) {
      outcome.end = in.end == IoEnd::kTimeout ? ConnEnd::kIdleTimeout
                                              : ConnEnd::kPeerClosed;
      return outcome;
    }
    if (in.bytes < kRequestBytes && drain.draining()) {
      // Interrupted mid-frame by the drain signal with only a partial
      // frame on the wire: refuse rather than wait out the deadline.
      send_refusal(conn, deadline);
      outcome.end = ConnEnd::kDrain;
      return outcome;
    }
    const Ack ack = handle_frame(runtime, frame, in.bytes);
    std::uint8_t out[kAckBytes];
    encode_ack(ack, out);
    const bool sent = write_full(conn, out, kAckBytes, deadline);
    ++outcome.answered;
    if (!sent) {
      outcome.end = ConnEnd::kSendFailed;
      return outcome;
    }
    if (ack.status == ErrorCode::kProtocolError) {
      outcome.end = ConnEnd::kProtocolError;
      return outcome;
    }
    if (drain.draining()) {
      // The in-flight request got its real answer; a follow-up frame
      // already queued on this connection gets an explicit refusal ack
      // (kUnavailable) so the client retries elsewhere instead of
      // misreading the close as a crash.
      if (wait_ready(conn, POLLIN, now_ms() + 1) > 0) {
        std::uint8_t next[kRequestBytes];
        if (read_full(conn, next, kRequestBytes, deadline_after(100)).bytes ==
            kRequestBytes) {
          send_refusal(conn, deadline_after(100));
        }
      }
      outcome.end = ConnEnd::kDrain;
      return outcome;
    }
  }
}

}  // namespace

Error serve(core::AdsalaGemm& runtime, const ServeOptions& options) {
  sockaddr_un addr{};
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return Error{ErrorCode::kValidationError,
                 options.socket_path + ": socket path too long"};
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    return Error{ErrorCode::kInternal,
                 std::string("socket: ") + std::strerror(errno)};
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // Reclaim the socket path only when nothing answers on it: a second
  // daemon started against a *live* daemon's socket must refuse loudly,
  // not silently steal its traffic.
  switch (probe_socket(addr)) {
    case SocketProbe::kLive: {
      ::close(listener);
      return Error{ErrorCode::kPreconditionFailed,
                   options.socket_path +
                       ": a live daemon is already serving on this socket"};
    }
    case SocketProbe::kDead:
      ::unlink(options.socket_path.c_str());
      break;
    case SocketProbe::kAbsent:
      break;
  }
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Error err{ErrorCode::kInternal, options.socket_path + ": bind: " +
                                              std::strerror(errno)};
    ::close(listener);
    return err;
  }
  if (::listen(listener, 16) != 0) {
    const Error err{ErrorCode::kInternal, options.socket_path +
                                              ": listen: " +
                                              std::strerror(errno)};
    ::close(listener);
    return err;
  }

  // Baseline the reattach stamp against what is in the region right now:
  // the runtime was just loaded from these (or equivalent) bytes, and
  // re-installing them would only burn a snapshot version.
  std::optional<core::ShmHeaderWatch> watch;
  std::optional<core::ShmStamp> served;
  if (!options.reattach_shm.empty()) {
    watch.emplace(options.reattach_shm);
    served = watch->probe();
  }

  DrainSignals drain(options.handle_signals);
  long counted = 0;
  while (options.max_requests < 0 || counted < options.max_requests) {
    if (drain.draining()) break;
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_acquire)) {
      break;
    }
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      // EINTR is routine here: the drain handler (or any stray signal)
      // interrupts accept; loop back and let the flags decide.
      if (errno == EINTR) continue;
      const Error err{ErrorCode::kInternal, options.socket_path +
                                                ": accept: " +
                                                std::strerror(errno)};
      ::close(listener);
      return err;
    }
    // Probe after accept, so a republish that landed while the loop sat in
    // accept already answers this connection.
    if (watch.has_value()) {
      maybe_reattach(runtime, *watch, options.reattach_shm, &served);
    }
    const long budget =
        options.max_requests < 0 ? -1 : options.max_requests - counted;
    counted += requests_counted(serve_connection(
        runtime, conn, options.io_timeout_ms, budget, drain));
    ::close(conn);
  }
  ::close(listener);
  ::unlink(options.socket_path.c_str());
  return Error{};
}

Expected<Ack> query(const std::string& socket_path, const Request& req,
                    int io_timeout_ms) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Error{ErrorCode::kValidationError,
                 socket_path + ": socket path too long"};
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error{ErrorCode::kInternal,
                 std::string("socket: ") + std::strerror(errno)};
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    if (saved == ENOENT) {
      return Error{ErrorCode::kNotFound,
                   socket_path + ": no daemon socket at this path"};
    }
    return Error{ErrorCode::kUnavailable,
                 socket_path + ": daemon not reachable: " +
                     std::strerror(saved)};
  }

  const long long deadline = deadline_after(io_timeout_ms);
  std::uint8_t frame[kRequestBytes];
  encode_request(req, frame);
  if (!write_full(fd, frame, kRequestBytes, deadline)) {
    const Error err{ErrorCode::kUnavailable,
                    socket_path + ": daemon hung up mid-request"};
    ::close(fd);
    return err;
  }
  // One frame per connection: half-close right away, so the daemon reads
  // EOF as soon as it has answered instead of waiting for this process to
  // be scheduled, read the ack and close.
  ::shutdown(fd, SHUT_WR);
  std::uint8_t back[kAckBytes];
  const IoResult got =
      read_full(fd, back, kAckBytes, deadline, /*poll_first=*/true);
  ::close(fd);
  if (got.end == IoEnd::kTimeout) {
    return Error{ErrorCode::kUnavailable,
                 socket_path + ": no answer within " +
                     std::to_string(io_timeout_ms) + "ms"};
  }
  return decode_ack(back, got.bytes);
}

}  // namespace adsala::daemon
