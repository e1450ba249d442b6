// Snapshot round-trip and io/binary error-path coverage for the
// sketch-store format: a snapshot built once must be loadable by another
// process bit-for-bit, and every malformed input must fail with a clear
// CheckError instead of UB (the suite runs under the asan preset in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>

#include "io/binary.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "serve/snapshot_bytes.hpp"
#include "support/macros.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

SketchStore make_store() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 4096;
  return SketchStore::build(g, options, "amazon-snapshot");
}

TEST(SketchSnapshot, SaveLoadSaveIsBitIdentical) {
  const SketchStore store = make_store();
  std::stringstream first;
  store.save(first);
  const SketchStore loaded = SketchStore::load(first);
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_TRUE(store == loaded);
}

TEST(SketchSnapshot, LoadedStoreAnswersIdenticallyToInMemory) {
  const SketchStore store = make_store();
  std::stringstream ss;
  store.save(ss);
  const SketchStore loaded = SketchStore::load(ss);

  const QueryEngine in_memory(store);
  const QueryEngine from_snapshot(loaded);

  EXPECT_EQ(from_snapshot.top_k(6).seeds, in_memory.top_k(6).seeds);

  QueryOptions constrained;
  constrained.k = 4;
  constrained.forbidden = {in_memory.top_k(1).seeds[0]};
  const QueryResult a = in_memory.select(constrained);
  const QueryResult b = from_snapshot.select(constrained);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.marginal_coverage, b.marginal_coverage);
  EXPECT_EQ(a.covered_sketches, b.covered_sketches);

  const std::vector<VertexId> eval_seeds = {1, 2, 3};
  EXPECT_EQ(in_memory.evaluate(eval_seeds).covered_sketches,
            from_snapshot.evaluate(eval_seeds).covered_sketches);
}

TEST(SketchSnapshot, FileRoundTrip) {
  const SketchStore store = make_store();
  const std::string path = ::testing::TempDir() + "/eimm_store_roundtrip.sks";
  store.save_file(path);
  const SketchStore loaded = SketchStore::load_file(path);
  EXPECT_TRUE(store == loaded);
}

/// A forward-only byte source, like a pipe: it hands the bytes out a
/// few hundred at a time and cannot seek.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (pos_ >= bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(777, bytes_.size() - pos_);
    char* begin = bytes_.data() + pos_;
    setg(begin, begin, begin + n);
    pos_ += n;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

TEST(SketchSnapshot, NonSeekableStreamLoadsLikeTheFile) {
  const SketchStore store = make_store();
  const std::string path = ::testing::TempDir() + "/eimm_store_pipe.sks";
  store.save_file(path);
  std::ifstream file(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  // Larger than the first mapping the stream is read into, so the
  // mapping has to grow while the bytes arrive.
  ASSERT_GT(bytes.size(), std::size_t{1} << 16);

  TrickleBuf source(bytes);
  std::istream is(&source);
  ASSERT_EQ(is.tellg(), std::streampos(-1)) << "source must not seek";
  const SketchStore streamed = SketchStore::load(is);
  const SketchStore mapped = SketchStore::load_file(path);
  EXPECT_TRUE(streamed == mapped);
  std::stringstream resaved;
  streamed.save(resaved);
  EXPECT_EQ(resaved.str(), bytes);
}

TEST(SketchSnapshot, MissingFileThrows) {
  EXPECT_THROW(SketchStore::load_file("/nonexistent/store.sks"), CheckError);
}

TEST(SketchSnapshot, ZeroLengthFileThrows) {
  std::stringstream empty;
  EXPECT_THROW(SketchStore::load(empty), CheckError);

  const std::string path = ::testing::TempDir() + "/eimm_store_empty.sks";
  std::ofstream(path, std::ios::binary).close();
  EXPECT_THROW(SketchStore::load_file(path), CheckError);
}

TEST(SketchSnapshot, BadMagicThrows) {
  std::stringstream ss("not a sketch store at all, sorry");
  EXPECT_THROW(SketchStore::load(ss), CheckError);

  // A valid header of the WRONG format must be rejected too.
  std::stringstream csr_like;
  csr_like << "EIMMCSR" << '\0' << "garbagegarbage";
  EXPECT_THROW(SketchStore::load(csr_like), CheckError);
}

TEST(SketchSnapshot, BadVersionThrows) {
  const SketchStore store = make_store();
  std::stringstream ss;
  store.save(ss);
  std::string data = ss.str();
  data[8] = 99;  // version u32 lives right after the 8-byte magic
  std::stringstream patched(data);
  try {
    SketchStore::load(patched);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SketchSnapshot, TruncationAtEveryRegionThrows) {
  const SketchStore store = make_store();
  std::stringstream ss;
  store.save(ss);
  const std::string data = ss.str();
  ASSERT_GT(data.size(), 64u);
  // Chop at a spread of points: header, meta, every array region.
  for (const double fraction : {0.1, 0.25, 0.5, 0.75, 0.99}) {
    std::string cut = data.substr(
        0, static_cast<std::size_t>(static_cast<double>(data.size()) *
                                    fraction));
    std::stringstream truncated(std::move(cut));
    EXPECT_THROW(SketchStore::load(truncated), CheckError)
        << "fraction " << fraction;
  }
}

TEST(SketchSnapshot, DuplicateSketchMembersThrow) {
  // One sketch lists its first member twice, with the section CRC
  // re-stamped over the edit: offsets and ranges all validate, but the
  // duplicate would double-count coverage — load must reject the
  // non-ascending run.
  const SketchStore store = make_store();
  std::string data = testing::snapshot_bytes(store);
  const auto offsets_at = static_cast<std::size_t>(
      testing::load_at<std::uint64_t>(data, testing::entry_at(1) + 8));
  const auto vertices_at = static_cast<std::size_t>(
      testing::load_at<std::uint64_t>(data, testing::entry_at(2) + 8));
  SketchId s = 0;
  while (store.member_count(s) < 2) ++s;
  const auto first = static_cast<std::size_t>(
      testing::load_at<std::uint64_t>(data, offsets_at + s * 8));
  const std::size_t member_at = vertices_at + first * sizeof(VertexId);
  testing::store_at(data, member_at + sizeof(VertexId),
                    testing::load_at<VertexId>(data, member_at));
  testing::restamp_crc(data, 2);
  std::stringstream ss(data);
  try {
    SketchStore::load(ss);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ascending"), std::string::npos)
        << e.what();
  }
}

TEST(SketchSnapshot, CorruptedStructureThrows) {
  const SketchStore store = make_store();
  std::stringstream ss;
  store.save(ss);
  std::string data = ss.str();
  // num_vertices (u32) sits immediately after the 12-byte header; zeroing
  // it makes the payload structurally inconsistent.
  data[12] = data[13] = data[14] = data[15] = 0;
  std::stringstream corrupted(data);
  EXPECT_THROW(SketchStore::load(corrupted), CheckError);
}

}  // namespace
}  // namespace eimm
