#pragma once
// Stream sockets and length-prefixed framing — the byte-moving substrate
// of the campaign daemon and its workers (src/serve). Deliberately tiny: a
// RAII fd wrapper (Socket), a bind/accept wrapper (Listener) speaking
// both TCP ("host:port", port 0 picks an ephemeral port) and Unix-domain
// endpoints ("unix:/path"), and a framing layer that moves opaque typed
// payloads with an 8-byte magic+type prologue and a u64 length prefix.
//
// Error taxonomy is the point, not a nicety: every failure surfaces as a
// typed exception naming the peer it happened on, and the decode side
// distinguishes the ways a frame can be malformed —
//   FrameError::Kind::kBadMagic    the bytes are not a frame stream
//   FrameError::Kind::kOversized   length prefix exceeds the caller's cap
//   FrameError::Kind::kTruncated   EOF mid-header or mid-payload
//   FrameError::Kind::kIo          the OS said no (errno text included)
// — so a daemon can log "peer X sent garbage" distinctly from
// "peer X died mid-frame" (re-lease the work) and a test can assert the
// exact failure class (tests/dist_test.cpp's malformed-frame matrix).
//
// Blocking I/O only, one reader and one writer per socket: the serve
// protocol is strictly request/response per connection, and timeouts are
// the receiver's business (set_recv_timeout). No poll loop, no buffering
// beyond the frame being assembled.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ulpdream::util {

/// Socket-layer failure, always naming the peer (or endpoint) involved.
class SocketError : public std::runtime_error {
 public:
  SocketError(std::string peer, const std::string& what)
      : std::runtime_error(peer + ": " + what), peer_(std::move(peer)) {}
  [[nodiscard]] const std::string& peer() const noexcept { return peer_; }

 private:
  std::string peer_;
};

/// Framing-layer failure: a typed decode error naming the peer. kIo and
/// kTruncated are transport problems (peer death, wire cut); kBadMagic
/// and kOversized mean the peer is not speaking the protocol.
class FrameError : public SocketError {
 public:
  enum class Kind { kBadMagic, kOversized, kTruncated, kIo };

  FrameError(Kind kind, std::string peer, const std::string& what)
      : SocketError(std::move(peer), what), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Move-only RAII wrapper over a connected stream socket. `peer()` is a
/// human-readable label ("127.0.0.1:45123", "unix:/run/x.sock", or the
/// label a socketpair was built with) used in every error message.
class Socket {
 public:
  Socket() = default;
  Socket(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept
      : fd_(other.fd_), peer_(std::move(other.peer_)) {
    other.fd_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      peer_ = std::move(other.peer_);
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const std::string& peer() const noexcept { return peer_; }

  /// Connects to "host:port" or "unix:/path". Throws SocketError naming
  /// the endpoint on resolution/connect failure.
  [[nodiscard]] static Socket connect(const std::string& endpoint);

  /// A connected AF_UNIX stream pair — the in-process transport the
  /// protocol tests ride (same bytes, no listener).
  [[nodiscard]] static std::pair<Socket, Socket> socketpair(
      const std::string& label = "socketpair");

  /// Blocking write of the whole buffer (EINTR-restarting). Throws
  /// SocketError on any short/failed write (EPIPE included — callers see
  /// peer death as an exception, never a signal).
  void write_all(const void* data, std::size_t len);

  /// Blocking read of exactly `len` bytes. Returns false when the peer
  /// closed cleanly *before the first byte*; throws FrameError
  /// (kTruncated) on EOF mid-buffer and (kIo) on OS errors.
  [[nodiscard]] bool read_all_or_eof(void* data, std::size_t len);

  /// Receive timeout for all subsequent reads (0 = block forever). A
  /// timed-out read surfaces as FrameError kIo mentioning the timeout.
  void set_recv_timeout(std::size_t milliseconds);

  /// Half-close both directions — wakes a thread blocked in read on this
  /// socket (it sees EOF). Safe on an invalid socket.
  void shutdown() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
  std::string peer_;
};

/// Bound, listening endpoint. `Listener::open("127.0.0.1:0")` binds an
/// ephemeral port; `endpoint()` reports the resolved address to hand to
/// workers. "unix:/path" endpoints unlink a stale socket file on open
/// and remove it on close.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(Listener&& other) noexcept
      : fd_(other.fd_),
        endpoint_(std::move(other.endpoint_)),
        unlink_path_(std::move(other.unlink_path_)) {
    other.fd_ = -1;
    other.unlink_path_.clear();
  }
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] static Listener open(const std::string& endpoint);

  /// Blocks for the next connection; the returned socket's peer() names
  /// the remote address. Throws SocketError when the listener was closed
  /// from another thread (a server's shutdown path) or on OS
  /// error.
  [[nodiscard]] Socket accept();

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// The resolved local endpoint ("127.0.0.1:45123" or "unix:/path").
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }

  /// Closes the listening fd — a thread blocked in accept() unblocks
  /// with a SocketError. Idempotent.
  void close() noexcept;

 private:
  int fd_ = -1;
  std::string endpoint_;
  std::string unlink_path_;  ///< unix socket file to remove on close
};

// ---------------------------------------------------------------------------
// Framing.

/// Every frame on the wire: 8-byte magic "ULPDFRM1", u32 type, u32
/// reserved (zero), u64 payload length, then the payload bytes. All
/// integers little-endian (the columnar store's convention).
inline constexpr char kFrameMagic[8] = {'U', 'L', 'P', 'D',
                                        'F', 'R', 'M', '1'};
inline constexpr std::size_t kFrameHeaderBytes = 24;

/// One decoded frame: the type tag and the opaque payload. Interpreting
/// the payload is the protocol layer's job (serve/protocol.hpp).
struct Frame {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Writes one frame. Throws SocketError on transport failure.
void write_frame(Socket& socket, std::uint32_t type,
                 const std::uint8_t* payload, std::size_t len);
inline void write_frame(Socket& socket, std::uint32_t type,
                        const std::vector<std::uint8_t>& payload) {
  write_frame(socket, type, payload.data(), payload.size());
}

/// Reads the next frame. Returns false on clean EOF at a frame boundary
/// (the peer hung up between frames — the orderly end of a connection).
/// Throws FrameError: kBadMagic when the stream is not frames at all,
/// kOversized when the length prefix exceeds `max_payload` (a lying or
/// hostile peer must not drive a huge allocation), kTruncated when the
/// peer died mid-frame, kIo on OS errors.
[[nodiscard]] bool read_frame(Socket& socket, Frame& out,
                              std::size_t max_payload);

}  // namespace ulpdream::util
