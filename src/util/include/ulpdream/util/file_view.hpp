#pragma once
// Read-side file access for the out-of-core persistence layer, plus the
// write-side durability helpers shared by every atomic store writer.
//
// FileView — whole-file random access behind one pointer. On POSIX the
// file is memory-mapped read-only (zero-copy: opening costs no heap and
// no read of the payload; pages fault in on first touch and stay
// reclaimable page cache). Everywhere else — or when mmap fails or is
// disabled with the ULPDREAM_DISABLE_MMAP env kill switch — it degrades
// to the portable fallback: read the whole file into a heap buffer. Every
// accessor is bounds-checked against the real file size and throws a
// std::runtime_error naming the path, so a truncated or lying file can
// never cause a read off the end of the mapping.
//
// ChunkedFileReader — bounded-memory random access for RSS-capped
// consumers (streaming aggregation of stores larger than memory): an
// LRU cache of fixed-size chunks filled by pread/seek+read. Memory is
// capped at chunk_bytes x max_chunks no matter how large the file is;
// sequential walks (even several interleaved ones, e.g. the columns of
// an append-merged store) hit the cache.
//
// Durability helpers — fsync_file / fsync_parent_dir / publish_file_atomic
// implement the full crash-safe publish protocol: flush the staged bytes,
// rename over the target, then fsync the parent directory so the *name*
// survives power loss too (a rename is only as durable as the directory
// entry that records it).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace ulpdream::util {

/// True when the ULPDREAM_DISABLE_MMAP environment variable is set to a
/// non-empty, non-"0" value — the runtime kill switch that forces every
/// FileView onto the portable buffered fallback (used by tests and by
/// deployments where mapping is undesirable).
[[nodiscard]] bool mmap_disabled_by_env();

class FileView {
 public:
  enum class Backing {
    kMapped,    ///< POSIX mmap; zero-copy, pages fault in on demand
    kBuffered,  ///< portable fallback: whole file read into a heap buffer
  };

  FileView() = default;
  /// Opens `path` read-only. Prefers mmap when `allow_mmap` and the
  /// platform supports it (and the env kill switch is off); otherwise
  /// reads the file into a buffer. Throws std::runtime_error naming the
  /// path on any I/O failure.
  [[nodiscard]] static FileView open(const std::string& path,
                                     bool allow_mmap = true);

  FileView(FileView&& other) noexcept;
  FileView& operator=(FileView&& other) noexcept;
  FileView(const FileView&) = delete;
  FileView& operator=(const FileView&) = delete;
  ~FileView();

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] Backing backing() const noexcept { return backing_; }
  [[nodiscard]] bool mapped() const noexcept {
    return backing_ == Backing::kMapped;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Bounds-checked byte range; throws std::runtime_error naming the path
  /// when [offset, offset+len) is not fully inside the file.
  [[nodiscard]] std::span<const std::byte> bytes(std::uint64_t offset,
                                                 std::uint64_t len) const;

  /// Bounds-checked little-endian scalar load (memcpy, so alignment of
  /// the stored offset never matters).
  template <typename T>
  [[nodiscard]] T pod_at(std::uint64_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    std::memcpy(&out, bytes(offset, sizeof(T)).data(), sizeof(T));
    return out;
  }

 private:
  std::string path_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  Backing backing_ = Backing::kBuffered;
  std::vector<std::byte> buffer_;  ///< owns the bytes in kBuffered mode
  void* map_base_ = nullptr;       ///< mmap base in kMapped mode
  std::size_t map_len_ = 0;
};

class ChunkedFileReader {
 public:
  /// Opens `path` for bounded-memory random access. Total cache memory is
  /// capped at chunk_bytes x max_chunks. Throws std::runtime_error naming
  /// the path when the file cannot be opened. Not thread-safe.
  explicit ChunkedFileReader(std::string path,
                             std::size_t chunk_bytes = 1u << 18,
                             std::size_t max_chunks = 64);

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Copies [offset, offset+len) into `dst` through the chunk cache;
  /// throws std::runtime_error naming the path on a out-of-bounds range
  /// or a short read.
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
  /// Returns the cached chunk covering byte `chunk_index * chunk_bytes_`,
  /// filling (and evicting least-recently-used) as needed.
  [[nodiscard]] const Chunk& chunk(std::uint64_t chunk_index) const;
  void fill(std::uint64_t offset, void* dst, std::size_t len) const;

  std::string path_;
  std::uint64_t size_ = 0;
  std::size_t chunk_bytes_;
  std::size_t max_chunks_;
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
