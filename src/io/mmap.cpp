#include "io/mmap.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <utility>

#include "support/failpoint.hpp"
#include "support/macros.hpp"

namespace eimm {

namespace {

[[noreturn]] void fail_errno(const std::string& what, const std::string& path) {
  throw CheckError(what + " '" + path + "': " + std::strerror(errno));
}

/// A writable private anonymous mapping of `size` bytes (size > 0).
std::uint8_t* map_anonymous(std::size_t size, const std::string& what) {
  void* base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) fail_errno("cannot allocate a private copy of", what);
  return static_cast<std::uint8_t*>(base);
}

/// Makes a filled private copy read-only.
void seal(std::uint8_t* base, std::size_t size, const std::string& what) {
  if (::mprotect(base, size, PROT_READ) != 0) {
    fail_errno("cannot make read-only the private copy of", what);
  }
}

}  // namespace

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      owned_(std::exchange(other.owned_, false)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    owned_ = std::exchange(other.owned_, false);
  }
  return *this;
}

MappedFile MappedFile::open_readonly(const std::string& path) {
  if (fail::inject("io.mmap.open")) {
    // kTrunc at this site models a file that vanished or shrank under us.
    throw CheckError("injected truncated mapping for '" + path + "'");
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail_errno("cannot open file for mapping", path);

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail_errno("cannot stat file for mapping", path);
  }
  if (st.st_size <= 0) {
    ::close(fd);
    throw CheckError("cannot map zero-length file '" + path + "'");
  }

  const auto size = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  // The mapping pins the inode; the descriptor is no longer needed either
  // way, so close before checking the result.
  ::close(fd);
  if (base == MAP_FAILED) fail_errno("cannot mmap file", path);

  MappedFile file;
  file.data_ = static_cast<const std::uint8_t*>(base);
  file.size_ = size;
  return file;
}

MappedFile MappedFile::read_private(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail_errno("cannot open file for reading", path);
  MappedFile file;
  try {
    struct stat st{};
    if (::fstat(fd, &st) != 0) fail_errno("cannot stat file for reading", path);
    if (st.st_size <= 0) {
      throw CheckError("cannot read zero-length file '" + path + "'");
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    std::uint8_t* base = map_anonymous(size, path);
    file.data_ = base;
    file.size_ = size;
    file.owned_ = true;
    for (std::size_t done = 0; done < size;) {
      const ssize_t got = ::read(fd, base + done, size - done);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) fail_errno("cannot read file", path);
      if (got == 0) {
        throw CheckError("file '" + path + "' shrank while being read");
      }
      done += static_cast<std::size_t>(got);
    }
    seal(base, size, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return file;
}

MappedFile MappedFile::read_stream(std::istream& is) {
  const std::string what = "a stream";
  MappedFile file;
  std::streambuf* source = is.rdbuf();
  if (source == nullptr) return file;
  std::size_t capacity = std::size_t{1} << 16;
  std::uint8_t* base = map_anonymous(capacity, what);
  std::size_t size = 0;
  try {
    for (;;) {
      if (size == capacity) {
        void* grown = ::mremap(base, capacity, 2 * capacity, MREMAP_MAYMOVE);
        if (grown == MAP_FAILED) {
          fail_errno("cannot grow the private copy of", what);
        }
        base = static_cast<std::uint8_t*>(grown);
        capacity *= 2;
      }
      const std::streamsize got = source->sgetn(
          reinterpret_cast<char*>(base + size),
          static_cast<std::streamsize>(capacity - size));
      if (got <= 0) break;
      size += static_cast<std::size_t>(got);
    }
    if (size == 0) {
      ::munmap(base, capacity);
      return file;
    }
    // Give back the unused tail so the mapping is exactly the pages that
    // hold the image (reset() unmaps `size` bytes).
    if (::mremap(base, capacity, size, 0) == MAP_FAILED) {
      fail_errno("cannot trim the private copy of", what);
    }
    capacity = size;
    seal(base, size, what);
  } catch (...) {
    ::munmap(base, capacity);
    throw;
  }
  file.data_ = base;
  file.size_ = size;
  file.owned_ = true;
  return file;
}

void MappedFile::reset() noexcept {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
    data_ = nullptr;
    size_ = 0;
    owned_ = false;
  }
}

}  // namespace eimm
