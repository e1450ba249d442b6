// Truncated snapshots: a file cut anywhere, or one whose header claims
// more bytes than it holds, must be rejected by the header and section
// table checks, before any section byte is read, with a typed
// bin::FormatError naming where the parser stopped. The same parser
// runs for both load modes, so every case is checked under each.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/binary.hpp"
#include "serve/sketch_store.hpp"
#include "serve/snapshot_bytes.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

using testing::entry_at;
using testing::kFileBytesAt;
using testing::kSectionCountAt;
using testing::load_at;
using testing::store_at;

struct Cut {
  const char* label;
  std::function<std::string(const std::string&)> apply;
};

std::uint64_t section_offset(const std::string& data, std::size_t index) {
  return load_at<std::uint64_t>(data, entry_at(index) + 8);
}

std::uint64_t section_end(const std::string& data, std::size_t index) {
  return section_offset(data, index) +
         load_at<std::uint64_t>(data, entry_at(index) + 16);
}

const std::vector<Cut>& cuts() {
  static const std::vector<Cut> kCuts = {
      {"inside the 24-byte header",
       [](const std::string& good) { return good.substr(0, 20); }},
      {"inside the section table",
       [](const std::string& good) {
         return good.substr(0, entry_at(3) + 5);
       }},
      {"inside the padding after the meta section",
       [](const std::string& good) {
         const std::uint64_t end = section_end(good, 0);
         const std::uint64_t next = section_offset(good, 1);
         EXPECT_LT(end + 1, next) << "no padding to cut into";
         return good.substr(0, (end + next) / 2);
       }},
      {"inside the last section",
       [](const std::string& good) {
         const auto last = load_at<std::uint32_t>(good, kSectionCountAt) - 1;
         const std::uint64_t begin = section_offset(good, last);
         const std::uint64_t end = section_end(good, last);
         EXPECT_GE(end - begin, 2u) << "last section too short to cut";
         return good.substr(0, (begin + end) / 2);
       }},
      {"header file_bytes beyond the file",
       [](const std::string& good) {
         std::string longer = good;
         store_at(longer, kFileBytesAt,
                  static_cast<std::uint64_t>(good.size()) + 4096);
         return longer;
       }},
  };
  return kCuts;
}

TEST(SnapshotTruncation, EveryCutFailsInTheTableChecksInBothModes) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 4;
  options.max_rrr_sets = 1024;
  const SketchStore store = SketchStore::build(g, options, "amazon-cut");
  const std::string path = ::testing::TempDir() + "/eimm_truncated.sks";

  for (const bool compress : {false, true}) {
    SnapshotSaveOptions save;
    save.compress = compress;
    const std::string good = testing::snapshot_bytes(store, save);
    for (const Cut& cut : cuts()) {
      testing::write_file(path, cut.apply(good));
      for (const SnapshotLoadMode mode :
           {SnapshotLoadMode::kMap, SnapshotLoadMode::kStream}) {
        SnapshotLoadOptions load;
        load.mode = mode;
        const std::string where = std::string(cut.label) +
                                  (compress ? " (compressed, " : " (raw, ") +
                                  (mode == SnapshotLoadMode::kMap ? "mmap)"
                                                                  : "stream)");
        try {
          SketchStore::load_file(path, load);
          ADD_FAILURE() << "accepted: " << where;
        } catch (const bin::FormatError& e) {
          // Only the header and the section table are read before the
          // image is known to be whole.
          EXPECT_TRUE(e.section() == "header" ||
                      e.section() == "section table")
              << where << ": " << e.what();
          EXPECT_TRUE(e.offset().has_value()) << where;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "untyped rejection: " << where << ": " << e.what();
        }
      }
    }
  }
}

}  // namespace
}  // namespace eimm
