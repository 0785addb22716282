#pragma once
// Read-side file access for the out-of-core persistence layer, plus the
// write-side durability helpers shared by every atomic store writer.
//
// ChunkedFileReader — the one way a store file is read: bounded-memory
// random access through an LRU cache of fixed-size chunks filled by
// pread (seek+read off POSIX). Memory is capped at kChunkBytes x
// kMaxChunks no matter how large the file is; sequential walks (even
// several interleaved ones, e.g. a block scan over a store's eleven
// columns) hit the cache. Nothing is mapped, so a file larger than
// memory (or than an address-space cap) opens and scans like a small
// one. Every read is bounds-checked against the real file size and
// throws a std::runtime_error naming the path. The cache mutates inside
// const calls, so a reader serves one thread at a time.
//
// Durability helpers — fsync_file / fsync_parent_dir / publish_file_atomic
// implement the full crash-safe publish protocol: flush the staged bytes,
// rename over the target, then fsync the parent directory so the *name*
// survives power loss too (a rename is only as durable as the directory
// entry that records it).

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace ulpdream::util {

class ChunkedFileReader {
 public:
  /// Cache geometry: 4 MiB per open file at most. Small files cost only
  /// their size (a chunk never extends past the end of the file).
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 18;
  static constexpr std::size_t kMaxChunks = 16;

  /// Opens `path` for bounded-memory random access. Throws
  /// std::runtime_error naming the path when the file cannot be opened.
  explicit ChunkedFileReader(std::string path);

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Copies [offset, offset+len) into `dst`; throws std::runtime_error
  /// naming the path on an out-of-bounds range or a short read.
  void read(std::uint64_t offset, void* dst, std::size_t len) const;

  template <typename T>
  [[nodiscard]] T pod_at(std::uint64_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    read(offset, &out, sizeof(T));
    return out;
  }

 private:
  struct Chunk {
    std::uint64_t index = 0;
    std::vector<std::byte> bytes;
  };
  /// Returns the cached chunk covering byte `chunk_index * kChunkBytes`,
  /// filling (and evicting least-recently-used) as needed.
  [[nodiscard]] const Chunk& chunk(std::uint64_t chunk_index) const;
  void fill(std::uint64_t offset, void* dst, std::size_t len) const;

  std::string path_;
  std::uint64_t size_ = 0;
  struct FdCloser {
    void operator()(void* f) const;
  };
  std::unique_ptr<void, FdCloser> file_;  ///< FILE* behind a void pointer
  // LRU: most-recent at the front; map from chunk index to list node.
  mutable std::list<Chunk> lru_;
  mutable std::unordered_map<std::uint64_t, std::list<Chunk>::iterator> map_;
};

/// fsync(2)s the file at `path` (opened read-only just for the flush).
/// No-op on platforms without fsync. Throws std::runtime_error naming the
/// path on failure.
void fsync_file(const std::string& path);

/// fsyncs the directory containing `path`, making a just-renamed name in
/// it durable. Filesystems that do not support directory fsync (EINVAL /
/// ENOTSUP) are tolerated; real I/O errors throw. No-op off POSIX.
void fsync_parent_dir(const std::string& path);

/// The complete crash-safe publish: fsync `tmp`, rename it over `path`,
/// fsync the parent directory. On failure the staging file is removed and
/// std::runtime_error (naming both paths) is thrown. After it returns, a
/// crash at any point leaves either the old file or the complete new one
/// — never a torn or unnamed checkpoint.
void publish_file_atomic(const std::string& tmp, const std::string& path);

/// Reads the whole file at `path` onto the heap (a store answered over
/// the wire, a cache sidecar). Throws std::runtime_error naming the path.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace ulpdream::util
