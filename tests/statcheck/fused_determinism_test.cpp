// Statistical + determinism contract of the fused 64-wide sampler
// (rrr/fused.hpp), at the pipeline level:
//   * fused IC output is STATISTICALLY equivalent to the scalar path —
//     the seeds it selects must match the scalar seeds' Monte-Carlo
//     spread within the harness tolerance, across shard counts and pool
//     compression backings (the bit-match check's replacement, see the
//     statcheck.hpp preamble — this is exactly the "future optimizations
//     may trade exact pool identity for speed" case it was built for);
//   * fused LT output is BITWISE equivalent to scalar: each lane replays
//     the scalar walk draw-for-draw from the same per-slot stream, so
//     the whole build must produce the identical pool image;
//   * fused runs are deterministic: same (workload, seed, options) →
//     bit-identical pool images across repeated runs and shard counts
//     (a 64-slot block is never split across shards);
//   * lane-window edge cases survive the full pipeline: workloads with
//     fewer vertices than lanes, set counts that end mid-block, and
//     more shards than blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "rrr/fused.hpp"
#include "rrr/sharded.hpp"
#include "statcheck.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

using statcheck::compare_spread;
using statcheck::statcheck_imm_options;
using statcheck::statcheck_workload;

constexpr double kSpreadTolerance = 0.05;

TEST(FusedStatistical, FusedSeedsMatchScalarSpreadAcrossShardsAndBackings) {
  // The headline contract: for IC and LT, across shard counts and pool
  // compression backings, seeds from a fused build must be as good as
  // the scalar build's seeds under forward Monte-Carlo estimation.
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const DiffusionGraph g = statcheck_workload(
        model == DiffusionModel::kIndependentCascade ? "com-YouTube"
                                                     : "com-DBLP",
        model, 0.03);
    auto opt = statcheck_imm_options(model, 6);
    opt.fused_sampling = FusedSampling::kOff;
    const ImmResult scalar = run_imm(g, opt, Engine::kEfficient);

    opt.fused_sampling = FusedSampling::kOn;
    for (const int shards : {1, 3}) {
      for (const PoolCompression compress :
           {PoolCompression::kNone, PoolCompression::kVarint}) {
        opt.shards = shards;
        opt.pool_compress = compress;
        const ImmResult fused = run_imm(g, opt, Engine::kEfficient);
        // LT is sampled by the scalar kernel even when fused.
        EXPECT_EQ(fused.fused_sampling_used,
                  model == DiffusionModel::kIndependentCascade);
        const auto cmp =
            compare_spread(g, model, scalar.seeds, fused.seeds);
        EXPECT_TRUE(cmp.within(kSpreadTolerance))
            << to_string(model) << " shards=" << shards
            << " compress=" << static_cast<int>(compress) << ": "
            << cmp.describe();
      }
    }
  }
}

TEST(FusedDeterminism, RepeatedFusedRunsProduceIdenticalImages) {
  const DiffusionGraph g = statcheck_workload(
      "com-YouTube", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.fused_sampling = FusedSampling::kOn;
  opt.shards = 2;
  const PoolBuild a = build_rrr_pool(g, opt, Engine::kEfficient);
  const PoolBuild b = build_rrr_pool(g, opt, Engine::kEfficient);
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a.size(), b.size());
  const FlatPool fa = a.view().flatten();
  const FlatPool fb = b.view().flatten();
  EXPECT_EQ(fa.offsets, fb.offsets);
  EXPECT_EQ(fa.vertices, fb.vertices);
}

TEST(FusedDeterminism, EveryShardCountProducesTheSameFusedImage) {
  // Fused planning works in 64-slot block units precisely so that shard
  // boundaries never split a traversal: shard count must keep moving
  // only placement and scheduling, never content, in fused mode too.
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.fused_sampling = FusedSampling::kOn;
  opt.shards = 1;
  const PoolBuild reference = build_rrr_pool(g, opt, Engine::kEfficient);
  ASSERT_TRUE(reference.fused_sampling_used);
  const FlatPool reference_flat = reference.view().flatten();

  for (const int shards : {2, 3, 5, 8}) {
    opt.shards = shards;
    const PoolBuild sharded = build_rrr_pool(g, opt, Engine::kEfficient);
    EXPECT_EQ(sharded.shards_used, shards);
    const FlatPool flat = sharded.view().flatten();
    EXPECT_EQ(reference_flat.offsets, flat.offsets) << "shards=" << shards;
    EXPECT_EQ(reference_flat.vertices, flat.vertices) << "shards=" << shards;
  }
}

TEST(FusedDeterminism, FusedLTBuildBitMatchesScalarBuild) {
  // An LT build that asks for fused sampling samples through the scalar
  // kernel, so the equivalence is exact at the whole-pipeline level:
  // identical pool image, identical martingale schedule, identical seeds.
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kLinearThreshold, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kLinearThreshold, 6);
  opt.shards = 2;
  opt.fused_sampling = FusedSampling::kOff;
  const PoolBuild scalar = build_rrr_pool(g, opt, Engine::kEfficient);
  opt.fused_sampling = FusedSampling::kOn;
  const PoolBuild fused = build_rrr_pool(g, opt, Engine::kEfficient);
  // The fused kernel is IC-only: an LT build asking for it never runs it.
  EXPECT_FALSE(fused.fused_sampling_used);
  EXPECT_FALSE(scalar.fused_sampling_used);
  ASSERT_EQ(scalar.size(), fused.size());
  const FlatPool fs = scalar.view().flatten();
  const FlatPool ff = fused.view().flatten();
  EXPECT_EQ(fs.offsets, ff.offsets);
  EXPECT_EQ(fs.vertices, ff.vertices);
}

TEST(FusedDeterminism, TinyWorkloadsSurviveTheFullPipeline) {
  // Fewer vertices than lanes (massive root sharing), set counts ending
  // mid-block (clipped final lane window), and more shards than blocks.
  const DiffusionGraph g = testing::make_weighted_graph(
      gen_erdos_renyi(40, 200, /*seed=*/9),
      DiffusionModel::kIndependentCascade);
  ShardedConfig config;
  config.model = DiffusionModel::kIndependentCascade;
  config.rng_seed = statcheck::statcheck_seed();
  config.fused = true;

  constexpr std::uint64_t kSets = 100;  // 1 full block + a 36-lane tail
  config.shards = 1;
  SegmentedPool reference(g.num_vertices());
  reference.resize(kSets);
  ShardedSampler ref_sampler(g.reverse, config);
  ref_sampler.generate(reference, 0, kSets, nullptr);

  for (const int shards : {2, 4, 8}) {  // 8 shards > 2 blocks
    config.shards = shards;
    SegmentedPool pool(g.num_vertices());
    pool.resize(kSets);
    ShardedSampler sampler(g.reverse, config);
    sampler.generate(pool, 0, kSets, nullptr);
    for (std::uint64_t i = 0; i < kSets; ++i) {
      const auto a = reference[i].vertices();
      const auto b = pool[i].vertices();
      ASSERT_EQ(a.size(), b.size()) << "shards=" << shards << " slot=" << i;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << "shards=" << shards << " slot=" << i;
      EXPECT_GE(a.size(), 1u);  // root always included
    }
  }
}

TEST(FusedDeterminism, RoundSplitWindowsComposeToTheFullRange) {
  // The martingale rounds hand the sampler growing ranges; a block split
  // across two generate() calls must produce the same slots a dedicated
  // split produces — i.e. content is a function of the lane windows
  // actually sampled, with no randomness shared across the split.
  const DiffusionGraph g = testing::make_weighted_graph(
      gen_erdos_renyi(200, 1600, /*seed=*/13),
      DiffusionModel::kIndependentCascade);
  ShardedConfig config;
  config.model = DiffusionModel::kIndependentCascade;
  config.rng_seed = statcheck::statcheck_seed();
  config.fused = true;
  config.shards = 2;

  constexpr std::uint64_t kSets = 192;
  SegmentedPool split_pool(g.num_vertices());
  split_pool.resize(kSets);
  ShardedSampler split_sampler(g.reverse, config);
  split_sampler.generate(split_pool, 0, 100, nullptr);   // clips block 1
  split_sampler.generate(split_pool, 100, kSets, nullptr);

  SegmentedPool split_pool2(g.num_vertices());
  split_pool2.resize(kSets);
  ShardedSampler split_sampler2(g.reverse, config);
  split_sampler2.generate(split_pool2, 0, 100, nullptr);
  split_sampler2.generate(split_pool2, 100, kSets, nullptr);

  for (std::uint64_t i = 0; i < kSets; ++i) {
    const auto a = split_pool[i].vertices();
    const auto b = split_pool2[i].vertices();
    ASSERT_EQ(a.size(), b.size()) << "slot=" << i;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "slot=" << i;
  }
}

}  // namespace
}  // namespace eimm
