#include "rrr/compressed_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "rrr/pool_view.hpp"
#include "seedselect/engine.hpp"
#include "support/macros.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

SegmentedPool random_pool(VertexId n, std::size_t count, std::uint64_t seed,
                          std::size_t max_size = 60) {
  std::vector<std::vector<VertexId>> sets(count);
  Xoshiro256 rng(seed);
  for (std::vector<VertexId>& members : sets) {
    const std::size_t size = rng.next_bounded(max_size);
    for (std::size_t j = 0; j < size; ++j) {
      members.push_back(static_cast<VertexId>(rng.next_bounded(n)));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
  }
  return testing::make_pool(n, sets);
}

TEST(CompressedPool, SlotIdentityAgainstSourceBothCodecs) {
  const VertexId n = 40'000;
  const SegmentedPool source = random_pool(n, 300, 31);
  for (const PoolCodec codec : {PoolCodec::kVarint, PoolCodec::kHuffman}) {
    CompressedPool cpool(n, codec);
    cpool.append(RRRPoolView(source), 0, source.size());
    ASSERT_EQ(cpool.size(), source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
      const std::vector<VertexId> expected(source[i].vertices().begin(),
                                           source[i].vertices().end());
      EXPECT_EQ(cpool.decode_slot(i), expected)
          << "codec=" << static_cast<int>(codec) << " slot " << i;
    }
    EXPECT_EQ(cpool.total_vertices(), RRRPoolView(source).total_vertices());
  }
}

TEST(CompressedPool, MultiRoundAppendMatchesSingleAppend) {
  const VertexId n = 10'000;
  const SegmentedPool source = random_pool(n, 257, 47);
  CompressedPool whole(n);
  whole.append(RRRPoolView(source), 0, source.size());

  CompressedPool rounds(n);
  rounds.append(RRRPoolView(source), 0, 100);
  rounds.append(RRRPoolView(source), 100, 101);
  rounds.append(RRRPoolView(source), 101, source.size());

  ASSERT_EQ(rounds.size(), whole.size());
  EXPECT_EQ(rounds.payload_bytes(), whole.payload_bytes());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(rounds.decode_slot(i), whole.decode_slot(i)) << i;
  }
}

TEST(CompressedPool, AppendRequiresInOrderRounds) {
  const SegmentedPool source = random_pool(1000, 10, 3);
  CompressedPool cpool(1000);
  cpool.append(RRRPoolView(source), 0, 5);
  EXPECT_THROW(cpool.append(RRRPoolView(source), 0, 5), CheckError);
  EXPECT_THROW(cpool.append(RRRPoolView(source), 7, 10), CheckError);
  EXPECT_THROW(cpool.append(RRRPoolView(source), 5, 20), CheckError);
}

TEST(CompressedPool, EdgeSlots) {
  const VertexId big = kInvalidVertex - 1;
  const SegmentedPool source =
      testing::make_pool(kInvalidVertex, {{},              // empty slot
                                          {0},             // vertex 0
                                          {big},           // max id
                                          {7, 8, 9, 10}});  // adjacent ids
  for (const PoolCodec codec : {PoolCodec::kVarint, PoolCodec::kHuffman}) {
    CompressedPool cpool(kInvalidVertex, codec);
    cpool.append(RRRPoolView(source), 0, 4);
    EXPECT_TRUE(cpool.decode_slot(0).empty());
    EXPECT_EQ(cpool.decode_slot(1), (std::vector<VertexId>{0}));
    EXPECT_EQ(cpool.decode_slot(2), (std::vector<VertexId>{big}));
    EXPECT_EQ(cpool.decode_slot(3), (std::vector<VertexId>{7, 8, 9, 10}));
    EXPECT_TRUE(cpool.slot(2).contains(big));
    EXPECT_FALSE(cpool.slot(2).contains(0));
    EXPECT_TRUE(cpool.slot(1).contains(0));
  }
}

TEST(CompressedPool, ViewFlattenBitMatchesSourceFlatten) {
  const VertexId n = 25'000;
  const SegmentedPool source = random_pool(n, 400, 53);
  const FlatPool reference = RRRPoolView(source).flatten();
  for (const PoolCodec codec : {PoolCodec::kVarint, PoolCodec::kHuffman}) {
    CompressedPool cpool(n, codec);
    cpool.append(RRRPoolView(source), 0, source.size());
    const RRRPoolView view(cpool);
    EXPECT_EQ(view.size(), source.size());
    EXPECT_EQ(view.num_vertices(), n);
    const FlatPool flat = view.flatten();
    EXPECT_EQ(flat.offsets, reference.offsets);
    EXPECT_EQ(flat.vertices, reference.vertices);
  }
}

TEST(CompressedPool, ViewReportsCompressedRepr) {
  const SegmentedPool source = random_pool(5000, 20, 9);
  CompressedPool cpool(5000);
  cpool.append(RRRPoolView(source), 0, source.size());
  const RRRPoolView view(cpool);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i].repr(), RRRRepr::kCompressed);
    EXPECT_EQ(view[i].size(), source[i].size());
  }
  // Against the raw sets' own bytes, not the arena's mapped chunk.
  EXPECT_LT(view.memory_bytes(), source.staged_bytes());
}

TEST(CompressedPool, SelectionSeedsMatchRawPool) {
  // The acceptance contract at engine level: the selection kernels run
  // unchanged over the compressed backing and pick identical seeds.
  std::vector<WeightedEdge> edges;
  for (VertexId v = 0; v < 3000; ++v) {
    edges.push_back({v, (v + 1) % 3000, 0.0F});
    edges.push_back({v, (v + 7) % 3000, 0.0F});
  }
  const DiffusionGraph g = testing::make_weighted_graph(
      std::move(edges), DiffusionModel::kIndependentCascade);
  const SegmentedPool raw =
      testing::sample_pool(g, DiffusionModel::kIndependentCascade, 4000,
                           0xFEED, bitmap_cutoff(g.num_vertices()));
  SelectionOptions sopt;
  sopt.k = 8;
  const SelectionEngine engine;
  const SelectionResult reference =
      engine.select(SelectionKernel::kEfficient, raw, sopt);

  for (const PoolCodec codec : {PoolCodec::kVarint, PoolCodec::kHuffman}) {
    CompressedPool cpool(g.num_vertices(), codec);
    cpool.append(RRRPoolView(raw), 0, raw.size());
    const SelectionResult compressed = engine.select(
        SelectionKernel::kEfficient, RRRPoolView(cpool), sopt);
    EXPECT_EQ(compressed.seeds, reference.seeds)
        << "codec=" << static_cast<int>(codec);
    EXPECT_EQ(compressed.marginal_coverage, reference.marginal_coverage);

    const SelectionResult ripples = engine.select(
        SelectionKernel::kRipples, RRRPoolView(cpool), sopt);
    const SelectionResult ripples_ref =
        engine.select(SelectionKernel::kRipples, raw, sopt);
    EXPECT_EQ(ripples.seeds, ripples_ref.seeds);
  }
}

TEST(CompressedPool, HuffmanPacksBelowVarint) {
  // Dense adjacent-ish sets: the gap bytes are heavily skewed, the case
  // the second stage exists for.
  const VertexId n = 200'000;
  std::vector<std::vector<VertexId>> sets(64);
  Xoshiro256 rng(77);
  for (std::vector<VertexId>& members : sets) {
    VertexId v = static_cast<VertexId>(rng.next_bounded(1000));
    for (int j = 0; j < 500; ++j) {
      v += 1 + static_cast<VertexId>(rng.next_bounded(3));
      members.push_back(v);
    }
  }
  const SegmentedPool source = testing::make_pool(n, sets);
  CompressedPool varint(n, PoolCodec::kVarint);
  varint.append(RRRPoolView(source), 0, source.size());
  CompressedPool huffman(n, PoolCodec::kHuffman);
  huffman.append(RRRPoolView(source), 0, source.size());
  EXPECT_LT(huffman.payload_bytes(), varint.payload_bytes());
  for (std::size_t i = 0; i < source.size(); ++i) {
    EXPECT_EQ(huffman.decode_slot(i), varint.decode_slot(i)) << i;
  }
}

TEST(PoolCompression, ResolveHonorsExplicitRequestOverEnvironment) {
  ::setenv("EIMM_POOL_COMPRESS", "huffman", 1);
  EXPECT_EQ(resolve_pool_compression(PoolCompression::kNone),
            PoolCompression::kNone);
  EXPECT_EQ(resolve_pool_compression(PoolCompression::kVarint),
            PoolCompression::kVarint);
  EXPECT_EQ(resolve_pool_compression(PoolCompression::kAuto),
            PoolCompression::kHuffman);
  ::setenv("EIMM_POOL_COMPRESS", "1", 1);
  EXPECT_EQ(resolve_pool_compression(PoolCompression::kAuto),
            PoolCompression::kVarint);
  ::setenv("EIMM_POOL_COMPRESS", "off", 1);
  EXPECT_EQ(resolve_pool_compression(PoolCompression::kAuto),
            PoolCompression::kNone);
  ::unsetenv("EIMM_POOL_COMPRESS");
  EXPECT_EQ(resolve_pool_compression(PoolCompression::kAuto),
            PoolCompression::kNone);
}

}  // namespace
}  // namespace eimm
