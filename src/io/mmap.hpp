// Read-only memory-mapped files — the serving-side answer to snapshot
// cold starts. A SketchStore snapshot mapped MAP_SHARED|PROT_READ is
// backed by the page cache, so N server processes loading the same file
// share ONE physical copy of the sketch payload and a load costs page
// table setup instead of a full read+copy of the pool.
//
// MappedFile is deliberately tiny: open, map, expose (data, size), and
// unmap on destruction. Alignment guarantees come from mmap itself (the
// base is page-aligned), so a page-aligned on-disk section can be
// reinterpreted as a typed array directly from the mapping. The same
// surface can also hold a private COPY of the bytes (read_private,
// read_stream): an anonymous mapping, just as page-aligned, so one
// parser serves shared and owned images alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace eimm {

/// A read-only, shared, page-cache-backed mapping of one file. Move-only;
/// the mapping (and the pointers served from it) lives until destruction.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only (PROT_READ, MAP_SHARED). Throws CheckError when
  /// the file cannot be opened, stat'ed, or mapped. Zero-length files are
  /// rejected (a valid snapshot always has a header).
  static MappedFile open_readonly(const std::string& path);

  /// Reads `path` with read(2) into a private anonymous mapping that is
  /// then made read-only. The bytes are owned (see owned()): later writes
  /// to the file never reach them. Throws CheckError like open_readonly.
  static MappedFile read_private(const std::string& path);

  /// Reads `is` to its end straight into a private anonymous mapping,
  /// grown in place (mremap) as bytes arrive and then made read-only, so
  /// the image is held once. Works on non-seekable streams. An empty
  /// stream yields an empty, invalid MappedFile.
  static MappedFile read_stream(std::istream& is);

  [[nodiscard]] bool valid() const noexcept { return data_ != nullptr; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// True when the pages are a private copy (read_private, read_stream)
  /// rather than the shared page cache of the file.
  [[nodiscard]] bool owned() const noexcept { return owned_; }

  /// Releases the mapping early (idempotent; also run by the destructor).
  void reset() noexcept;

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool owned_ = false;
};

}  // namespace eimm
