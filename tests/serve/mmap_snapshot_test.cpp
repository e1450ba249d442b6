// Snapshot load coverage: the mmap load path must be zero-copy and
// bit-faithful, the section table must reject every structural
// corruption with a FormatError naming the section, and N read-only
// loads of one file must not interfere (the N-serving-processes
// deployment the format exists for).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "io/binary.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "serve/snapshot_bytes.hpp"
#include "support/macros.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

using testing::entry_at;
using testing::kEntryBytes;
using testing::kFileBytesAt;
using testing::kTableAt;
using testing::kVersionAt;
using testing::load_at;
using testing::read_file;
using testing::snapshot_bytes;
using testing::store_at;
using testing::write_file;

SketchStore make_store() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 4096;
  return SketchStore::build(g, options, "amazon-mmap");
}

std::string snapshot_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Whether any `<path>.tmp.*` file sits beside `path`.
bool temp_files_left(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(MmapSnapshot, MapLoadIsZeroCopyAndBitIdentical) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_identity.sks");
  store.save_file(path);
  const std::string original = read_file(path);

  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  const SketchStore mapped = SketchStore::load_file(path, map_options);

  const SnapshotLoadStats& stats = mapped.load_stats();
  EXPECT_EQ(stats.version, 4u);
  EXPECT_TRUE(stats.mmap_backed);
  EXPECT_EQ(stats.file_bytes, original.size());
  EXPECT_EQ(stats.bytes_mapped, original.size());
  EXPECT_EQ(stats.bytes_copied, 0u);  // the zero-copy acceptance counter
  EXPECT_EQ(mapped.mapped_bytes(), original.size());

  EXPECT_TRUE(store == mapped);

  // save(mmap-load(save(store))) must reproduce the bytes exactly.
  std::stringstream resaved;
  mapped.save(resaved);
  EXPECT_EQ(resaved.str(), original);
}

TEST(MmapSnapshot, StreamAndMapLoadsServeIdenticalResults) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_agree.sks");
  store.save_file(path);

  SnapshotLoadOptions stream_options;
  stream_options.mode = SnapshotLoadMode::kStream;
  const SketchStore streamed = SketchStore::load_file(path, stream_options);
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  const SketchStore mapped = SketchStore::load_file(path, map_options);

  EXPECT_FALSE(streamed.load_stats().mmap_backed);
  EXPECT_GT(streamed.load_stats().bytes_copied, 0u);
  // The stream load's buffer is owned memory, not a shared mapping.
  EXPECT_EQ(streamed.mapped_bytes(), 0u);
  EXPECT_GE(streamed.memory_bytes(), streamed.load_stats().file_bytes);
  EXPECT_TRUE(streamed.load_stats().checksums_verified);
  EXPECT_TRUE(streamed == mapped);

  const QueryEngine a(streamed);
  const QueryEngine b(mapped);
  EXPECT_EQ(a.top_k(6).seeds, b.top_k(6).seeds);
  QueryOptions constrained;
  constrained.k = 4;
  constrained.forbidden = {a.top_k(1).seeds[0]};
  EXPECT_EQ(a.select(constrained).seeds, b.select(constrained).seeds);
}

TEST(MmapSnapshot, DefaultModeMapsTheFile) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_default.sks");
  store.save_file(path);
  const SketchStore loaded = SketchStore::load_file(path);
  EXPECT_TRUE(loaded.load_stats().mmap_backed);
  EXPECT_EQ(loaded.load_stats().bytes_copied, 0u);
}

TEST(MmapSnapshot, V1HeaderIsRejectedInBothModes) {
  // v1 is no longer read: its header must fail with a typed error that
  // names the version, whichever way the bytes arrive.
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_v1.sks");
  std::string data = snapshot_bytes(store);
  store_at(data, kVersionAt, std::uint32_t{1});
  write_file(path, data);

  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kMap, SnapshotLoadMode::kStream}) {
    SnapshotLoadOptions options;
    options.mode = mode;
    try {
      SketchStore::load_file(path, options);
      FAIL() << "v1 header accepted in mode " << static_cast<int>(mode);
    } catch (const bin::FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
          << e.what();
      EXPECT_EQ(e.section(), "header");
      EXPECT_EQ(e.offset(), std::optional<std::uint64_t>{kVersionAt});
    }
  }
  std::istringstream is(data);
  EXPECT_THROW(SketchStore::load(is), bin::FormatError);
}

TEST(MmapSnapshot, SectionTableCorruptionsThrow) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_corrupt.sks");
  store.save_file(path);
  const std::string good = read_file(path);

  const auto expect_rejected = [&](const std::string& data,
                                   const char* label) {
    write_file(path, data);
    for (const SnapshotLoadMode mode :
         {SnapshotLoadMode::kMap, SnapshotLoadMode::kStream}) {
      try {
        SnapshotLoadOptions options;
        options.mode = mode;
        SketchStore::load_file(path, options);
        FAIL() << label << " accepted in mode " << static_cast<int>(mode);
      } catch (const bin::FormatError& e) {
        EXPECT_FALSE(e.section().empty()) << label;
      } catch (const CheckError&) {
        // Size-mismatch paths throw plain CheckError; still a clean
        // rejection.
      }
    }
  };

  // Misaligned section offset (alignment is what makes mmap serving
  // page-granular).
  std::string misaligned = good;
  store_at(misaligned, kTableAt + 8,
           load_at<std::uint64_t>(good, kTableAt + 8) + 1);
  expect_rejected(misaligned, "misaligned offset");

  // Section ids out of order.
  std::string swapped_ids = good;
  store_at(swapped_ids, kTableAt + 0, std::uint32_t{2});
  expect_rejected(swapped_ids, "wrong section id order");

  // Second section overlapping the first.
  std::string overlapping = good;
  store_at(overlapping, kTableAt + kEntryBytes + 8,
           load_at<std::uint64_t>(good, kTableAt + 8));
  expect_rejected(overlapping, "overlapping sections");

  // Declared file size disagreeing with the section table.
  std::string shrunk = good;
  store_at(shrunk, kFileBytesAt,
           load_at<std::uint64_t>(good, kFileBytesAt) - 1);
  expect_rejected(shrunk, "file_bytes mismatch");

  // Trailing bytes after the last section, reported where they begin
  // rather than as a truncation.
  expect_rejected(good + std::string(1, '\0'), "trailing bytes");
  try {
    SketchStore::load_file(path);
    FAIL() << "trailing bytes accepted";
  } catch (const bin::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("past the declared end"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.offset(), std::optional<std::uint64_t>{good.size()});
  }

  // Truncation inside the section table itself.
  expect_rejected(good.substr(0, kTableAt + kEntryBytes / 2),
                  "truncated section table");

  // The pristine bytes must still load (guards the helpers above).
  write_file(path, good);
  EXPECT_NO_THROW(SketchStore::load_file(path));
}

TEST(MmapSnapshot, DeepValidateCatchesTamperedPayload) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_tamper.sks");
  store.save_file(path);
  std::string data = read_file(path);

  // Section 3 (sketch vertices) is table entry 2; plant an
  // out-of-range vertex id in its first slot. The structure (table,
  // offsets) stays valid.
  const auto vertices_at = static_cast<std::size_t>(
      load_at<std::uint64_t>(data, kTableAt + 2 * kEntryBytes + 8));
  store_at(data, vertices_at, std::uint32_t{0xFFFFFFFFu});
  write_file(path, data);

  // A plain mmap load only checks structure — it must succeed (that is
  // the O(index) cold-start contract)...
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  EXPECT_NO_THROW(SketchStore::load_file(path, map_options));

  // ...while deep_validate and the stream loader both scan the payload
  // and must reject it.
  SnapshotLoadOptions deep = map_options;
  deep.deep_validate = true;
  EXPECT_THROW(SketchStore::load_file(path, deep), CheckError);
  SnapshotLoadOptions stream_options;
  stream_options.mode = SnapshotLoadMode::kStream;
  EXPECT_THROW(SketchStore::load_file(path, stream_options), CheckError);
}

TEST(MmapSnapshot, DeepValidatedMapLoadReportsIt) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_deep.sks");
  store.save_file(path);
  SnapshotLoadOptions deep;
  deep.mode = SnapshotLoadMode::kMap;
  deep.deep_validate = true;
  const SketchStore loaded = SketchStore::load_file(path, deep);
  EXPECT_TRUE(loaded.load_stats().deep_validated);
  EXPECT_EQ(loaded.load_stats().bytes_copied, 0u);
  EXPECT_TRUE(store == loaded);
}

TEST(MmapSnapshot, ConcurrentReadOnlyLoadsAgree) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_concurrent.sks");
  store.save_file(path);
  const QueryEngine reference(store);
  const std::vector<VertexId> expected = reference.top_k(6).seeds;

  constexpr int kLoaders = 8;
  std::vector<int> ok(kLoaders, 0);
  std::vector<std::thread> loaders;
  loaders.reserve(kLoaders);
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      SnapshotLoadOptions options;
      options.mode = t % 2 == 0 ? SnapshotLoadMode::kMap
                                : SnapshotLoadMode::kStream;
      const SketchStore mine = SketchStore::load_file(path, options);
      const QueryEngine engine(mine);
      ok[static_cast<std::size_t>(t)] =
          engine.top_k(6).seeds == expected && mine == store ? 1 : 0;
    });
  }
  for (std::thread& t : loaders) t.join();
  for (int t = 0; t < kLoaders; ++t) EXPECT_EQ(ok[static_cast<std::size_t>(t)], 1) << t;
}

TEST(MmapSnapshot, MappedStoreSurvivesMove) {
  // Spans must keep pointing into the mapping after the store moves
  // (serving code returns stores by value).
  const SketchStore built = make_store();
  const std::string path = snapshot_path("eimm_mmap_move.sks");
  built.save_file(path);
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  SketchStore first = SketchStore::load_file(path, map_options);
  const std::vector<VertexId> before(first.default_seeds().begin(),
                                     first.default_seeds().end());
  SketchStore second = std::move(first);
  EXPECT_TRUE(std::equal(second.default_seeds().begin(),
                         second.default_seeds().end(), before.begin(),
                         before.end()));
  EXPECT_TRUE(second == built);
  EXPECT_TRUE(second.load_stats().mmap_backed);
}

TEST(MmapSnapshot, SavingOverAMappedSnapshotKeepsTheOldGeneration) {
  // save_file replaces the target by rename, so a store mapped from the
  // old file keeps reading the old inode. An in-place rewrite would
  // truncate the pages under the mapping and SIGBUS its next read.
  const std::string path = snapshot_path(
      ("eimm_mmap_overwrite." + std::to_string(::getpid()) + ".sks").c_str());
  const SketchStore old_store = make_store();
  old_store.save_file(path);
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  const SketchStore mapped = SketchStore::load_file(path, map_options);
  ASSERT_TRUE(mapped.load_stats().mmap_backed);
  const std::vector<VertexId> old_seeds = QueryEngine(mapped).top_k(6).seeds;

  const DiffusionGraph g = make_workload_with_weights(
      "com-DBLP", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 5;
  options.max_rrr_sets = 2048;
  const SketchStore new_store =
      SketchStore::build(g, options, "dblp-overwrite");
  new_store.save_file(path);

  // The mapped store reads every one of its pages and still matches the
  // generation it was loaded from.
  EXPECT_TRUE(mapped == old_store);
  EXPECT_EQ(QueryEngine(mapped).top_k(6).seeds, old_seeds);

  const SketchStore fresh = SketchStore::load_file(path, map_options);
  EXPECT_TRUE(fresh == new_store);
  EXPECT_FALSE(fresh == old_store);
  EXPECT_EQ(fresh.meta().workload, "dblp-overwrite");
  EXPECT_EQ(fresh.load_stats().file_bytes, read_file(path).size());

  // The temp file was renamed away, not left beside the target.
  EXPECT_FALSE(temp_files_left(path));
  std::remove(path.c_str());
}

TEST(MmapSnapshot, FailedSaveLeavesNoTempFileAndKeepsTheTarget) {
  // The rename cannot replace a directory, so the save fails after the
  // temp file is fully written; it must clean the temp file up.
  const std::string dir = snapshot_path(
      ("eimm_mmap_dir_target." + std::to_string(::getpid())).c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  const SketchStore store = make_store();
  EXPECT_THROW(store.save_file(dir), CheckError);
  EXPECT_FALSE(temp_files_left(dir));
  struct stat st {};
  ASSERT_EQ(::stat(dir.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  ::rmdir(dir.c_str());
}

TEST(MmapSnapshot, ConcurrentSavesToOneTargetNeverMixTheirFiles) {
  // Two threads of one process save different stores to the same path,
  // over and over. Every save must succeed, the target must end up as
  // exactly one of the two stores, and no temp file may be left behind.
  const std::string dir = snapshot_path(
      ("eimm_concurrent_save." + std::to_string(::getpid())).c_str());
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/store.sks";
  const SketchStore first = make_store();
  const DiffusionGraph g = make_workload_with_weights(
      "com-DBLP", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 5;
  options.max_rrr_sets = 2048;
  const SketchStore second = SketchStore::build(g, options, "dblp-concurrent");
  ASSERT_FALSE(first == second);

  constexpr int kSaves = 25;
  int failures[2] = {0, 0};
  const auto saver = [&](const SketchStore& store, int& failed) {
    for (int i = 0; i < kSaves; ++i) {
      try {
        store.save_file(path);
      } catch (const CheckError&) {
        ++failed;
      }
    }
  };
  std::thread a(saver, std::cref(first), std::ref(failures[0]));
  std::thread b(saver, std::cref(second), std::ref(failures[1]));
  a.join();
  b.join();

  EXPECT_EQ(failures[0], 0);
  EXPECT_EQ(failures[1], 0);
  const SketchStore loaded = SketchStore::load_file(path);
  EXPECT_TRUE(loaded == first || loaded == second);
  EXPECT_FALSE(temp_files_left(path));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eimm
