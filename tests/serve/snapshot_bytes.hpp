// Byte-level helpers for the snapshot tests: the header layout, file
// round trips, and the v4 -> v2/v3 conversion that stands in for a
// legacy writer. v2 and v3 differ from v4 only in the version word and
// the zeroed CRC slots of the section table, so the conversion is exact.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/sketch_store.hpp"
#include "support/crc32c.hpp"

namespace eimm::testing {

// Header layout (little-endian): magic[8], u32 version, u32
// section_count, u64 file_bytes, then section_count entries of
// {u32 id, u32 crc, u64 offset, u64 bytes}.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kSectionCountAt = 12;
constexpr std::size_t kFileBytesAt = 16;
constexpr std::size_t kTableAt = 24;
constexpr std::size_t kEntryBytes = 24;

template <typename T>
T load_at(const std::string& data, std::size_t at) {
  T v{};
  std::memcpy(&v, data.data() + at, sizeof v);
  return v;
}

template <typename T>
void store_at(std::string& data, std::size_t at, T v) {
  std::memcpy(data.data() + at, &v, sizeof v);
}

inline std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

inline void write_file(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

inline std::string snapshot_bytes(const SketchStore& store,
                                  SnapshotSaveOptions options = {}) {
  std::ostringstream os;
  store.save(os, options);
  return os.str();
}

/// Byte offset of section-table entry `index` (0-based).
constexpr std::size_t entry_at(std::size_t index) {
  return kTableAt + index * kEntryBytes;
}

/// The legacy bytes of a v4 image: v2 for the raw layout, v3 for the
/// compressed one.
inline std::string to_legacy(std::string v4) {
  const auto sections = load_at<std::uint32_t>(v4, kSectionCountAt);
  store_at(v4, kVersionAt, std::uint32_t{sections == 8 ? 3u : 2u});
  for (std::uint32_t s = 0; s < sections; ++s) {
    store_at(v4, entry_at(s) + 4, std::uint32_t{0});
  }
  return v4;
}

/// Re-stamps the CRC of section-table entry `index` after a test edited
/// that section's payload, so only the edit itself is under test.
inline void restamp_crc(std::string& data, std::size_t index) {
  const auto offset = load_at<std::uint64_t>(data, entry_at(index) + 8);
  const auto bytes = load_at<std::uint64_t>(data, entry_at(index) + 16);
  store_at(data, entry_at(index) + 4, crc32c(data.data() + offset, bytes));
}

}  // namespace eimm::testing
