#include "ulpdream/util/file_view.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ULPDREAM_POSIX_IO 1
#include <cerrno>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ulpdream::util {

namespace {

[[noreturn]] void io_fail(const std::string& path, const std::string& what) {
  throw std::runtime_error(path + ": " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// ChunkedFileReader.

void ChunkedFileReader::FdCloser::operator()(void* f) const {
  if (f != nullptr) std::fclose(static_cast<std::FILE*>(f));
}

ChunkedFileReader::ChunkedFileReader(std::string path)
    : path_(std::move(path)) {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) io_fail(path_, "cannot open");
  file_.reset(f);
  if (std::fseek(f, 0, SEEK_END) != 0) io_fail(path_, "cannot seek");
  const long end = std::ftell(f);
  if (end < 0) io_fail(path_, "cannot tell size");
  size_ = static_cast<std::uint64_t>(end);
}

void ChunkedFileReader::fill(std::uint64_t offset, void* dst,
                             std::size_t len) const {
  auto* f = static_cast<std::FILE*>(file_.get());
#if ULPDREAM_POSIX_IO
  // pread keeps the FILE* position untouched and needs no seek syscall.
  const ::ssize_t got = ::pread(::fileno(f), dst, len,
                                static_cast<::off_t>(offset));
  if (got < 0 || static_cast<std::size_t>(got) != len) {
    io_fail(path_, "short read at offset " + std::to_string(offset));
  }
#else
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(dst, 1, len, f) != len) {
    io_fail(path_, "short read at offset " + std::to_string(offset));
  }
#endif
}

const ChunkedFileReader::Chunk& ChunkedFileReader::chunk(
    std::uint64_t chunk_index) const {
  // Sequential reads mostly land in the chunk just used: skip the lookup.
  if (!lru_.empty() && lru_.front().index == chunk_index) {
    return lru_.front();
  }
  if (const auto it = map_.find(chunk_index); it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
    return *it->second;
  }
  if (lru_.size() >= kMaxChunks) {
    map_.erase(lru_.back().index);
    lru_.pop_back();
  }
  Chunk c;
  c.index = chunk_index;
  const std::uint64_t start = chunk_index * kChunkBytes;
  const std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(kChunkBytes, size_ - start));
  c.bytes.resize(len);
  fill(start, c.bytes.data(), len);
  lru_.push_front(std::move(c));
  map_[chunk_index] = lru_.begin();
  return lru_.front();
}

void ChunkedFileReader::read(std::uint64_t offset, void* dst,
                             std::size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    io_fail(path_, "out-of-bounds read at offset " + std::to_string(offset) +
                       " (+" + std::to_string(len) + " bytes, file is " +
                       std::to_string(size_) + ")");
  }
  auto* out = static_cast<std::byte*>(dst);
  while (len > 0) {
    const std::uint64_t ci = offset / kChunkBytes;
    const std::size_t in_chunk =
        static_cast<std::size_t>(offset - ci * kChunkBytes);
    const Chunk& c = chunk(ci);
    const std::size_t take = std::min(len, c.bytes.size() - in_chunk);
    std::memcpy(out, c.bytes.data() + in_chunk, take);
    out += take;
    offset += take;
    len -= take;
  }
}

// ---------------------------------------------------------------------------
// Durability helpers.

void fsync_file(const std::string& path) {
#if ULPDREAM_POSIX_IO
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_fail(path, "cannot open for fsync");
  if (::fsync(fd) != 0) {
    ::close(fd);
    io_fail(path, "fsync failed");
  }
  ::close(fd);
#else
  (void)path;
#endif
}

void fsync_parent_dir(const std::string& path) {
#if ULPDREAM_POSIX_IO
  std::string dir;
  if (const auto slash = path.find_last_of('/');
      slash == std::string::npos) {
    dir = ".";
  } else if (slash == 0) {
    dir = "/";
  } else {
    dir = path.substr(0, slash);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) io_fail(dir, "cannot open directory for fsync");
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    // Some filesystems refuse directory fsync outright; that is a
    // property of the mount, not a torn write — tolerate it.
    if (err == EINVAL || err == ENOTSUP || err == ENOSYS) return;
    io_fail(dir, "directory fsync failed");
  }
  ::close(fd);
#else
  (void)path;
#endif
}

void publish_file_atomic(const std::string& tmp, const std::string& path) {
  try {
    fsync_file(tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      io_fail(tmp, "cannot rename over " + path);
    }
    // The rename is only durable once the directory entry is; without
    // this, a power cut after "success" can resurrect the old file (or
    // no file) even though the data blocks of the new one are on disk.
    fsync_parent_dir(path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) io_fail(path, "cannot open for reading");
  const std::streamsize size = is.tellg();
  is.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 && !is.read(reinterpret_cast<char*>(bytes.data()), size)) {
    io_fail(path, "short read");
  }
  return bytes;
}

}  // namespace ulpdream::util
