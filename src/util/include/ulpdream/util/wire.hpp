#pragma once
// Payload codec of the ULPDFRM1-framed daemon protocol
// (serve/protocol.hpp) and the cache's spec sidecars. The framing layer
// (socket.hpp) moves opaque typed byte blobs; this layer is how those
// blobs are built and picked apart: a little-endian append-only writer
// and a bounds-checked reader whose every failure names the peer, the
// message and the field being decoded.
//
// The reader is deliberately paranoid: a length that runs past the
// buffer, a field missing its bytes, or trailing bytes after the last
// field all throw WireError — a decoder can never read outside the
// payload it was handed, no matter what a peer sent.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ulpdream::util {

/// Typed payload-decode failure naming the peer. Transport-level
/// failures are FrameError (socket.hpp); a WireError means the frame
/// arrived intact but its payload lied about its own shape.
class WireError : public std::runtime_error {
 public:
  WireError(std::string peer, const std::string& what)
      : std::runtime_error(peer + ": " + what), peer_(std::move(peer)) {}
  [[nodiscard]] const std::string& peer() const noexcept { return peer_; }

 private:
  std::string peer_;
};

/// Little-endian payload writer (append-only vector).
class PayloadWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v) { put_pod(v); }
  void put_u64(std::uint64_t v) { put_pod(v); }
  void put_f64(double v) { put_pod(v); }
  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void put_blob(const std::vector<std::uint8_t>& b) {
    put_u64(b.size());
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }

 private:
  template <typename T>
  void put_pod(T v) {
    const std::size_t pos = bytes_.size();
    bytes_.resize(pos + sizeof(T));
    std::memcpy(bytes_.data() + pos, &v, sizeof(T));
  }
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked payload reader over a borrowed byte buffer (a frame
/// payload, or a sidecar file's bytes); every failure names the peer,
/// the message and the field being decoded. The buffer must outlive the
/// reader.
class PayloadReader {
 public:
  PayloadReader(const std::vector<std::uint8_t>& bytes, std::string peer,
                const char* msg)
      : bytes_(bytes), peer_(std::move(peer)), msg_(msg) {}

  std::uint8_t get_u8(const char* field) {
    return get_pod<std::uint8_t>(field);
  }
  std::uint32_t get_u32(const char* field) {
    return get_pod<std::uint32_t>(field);
  }
  std::uint64_t get_u64(const char* field) {
    return get_pod<std::uint64_t>(field);
  }
  double get_f64(const char* field) { return get_pod<double>(field); }
  std::string get_string(const char* field) {
    const std::uint32_t len = get_u32(field);
    need(len, field);
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_),
                    len);
    pos_ += len;
    return out;
  }
  std::vector<std::uint8_t> get_blob(const char* field) {
    const std::uint64_t len = get_u64(field);
    need(len, field);
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<long>(pos_),
                                  bytes_.begin() +
                                      static_cast<long>(pos_ + len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }

  /// Rejects trailing bytes — a payload longer than the message is as
  /// malformed as a short one (it will desynchronize nothing, but it
  /// means the peer and we disagree about the message shape).
  void finish() const;

 private:
  void need(std::uint64_t len, const char* field) const;
  template <typename T>
  T get_pod(const char* field) {
    need(sizeof(T), field);
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::vector<std::uint8_t>& bytes_;
  mutable std::size_t pos_ = 0;
  std::string peer_;
  const char* msg_;
};

}  // namespace ulpdream::util
