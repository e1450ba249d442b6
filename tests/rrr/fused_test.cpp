#include "rrr/fused.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "rrr/generate.hpp"
#include "rrr/sharded.hpp"
#include "runtime/rng_stream.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

using testing::ScopedEnv;
using testing::make_graph;
using testing::make_weighted_graph;
using testing::set_uniform_probability;

constexpr std::uint64_t kSeed = 0xBE9C;

// Checks the FusedScratch all-zero invariant the traversals must restore.
void expect_scratch_clean(const FusedScratch& scratch) {
  for (const std::uint64_t w : scratch.visited) EXPECT_EQ(w, 0u);
  for (const std::uint64_t w : scratch.pending) EXPECT_EQ(w, 0u);
}

TEST(ResolveFusedSampling, ExplicitWinsEnvFillsAuto) {
  ScopedEnv on("EIMM_FUSED", "1");
  EXPECT_FALSE(resolve_fused_sampling(FusedSampling::kOff));
  EXPECT_TRUE(resolve_fused_sampling(FusedSampling::kOn));
  EXPECT_TRUE(resolve_fused_sampling(FusedSampling::kAuto));
  ScopedEnv off("EIMM_FUSED", nullptr);
  EXPECT_FALSE(resolve_fused_sampling(FusedSampling::kAuto));
}

TEST(BernoulliMask, DegenerateProbabilities) {
  Xoshiro256 rng = rng_stream(kSeed, 0);
  EXPECT_EQ(bernoulli_mask(rng, 0.0), 0u);
  EXPECT_EQ(bernoulli_mask(rng, -1.0), 0u);
  EXPECT_EQ(bernoulli_mask(rng, 1.0), ~std::uint64_t{0});
  EXPECT_EQ(bernoulli_mask(rng, 2.0), ~std::uint64_t{0});
  // Below the 2^-32 quantization grid rounds to never.
  EXPECT_EQ(bernoulli_mask(rng, 1e-12), 0u);
}

TEST(BernoulliMask, MatchesProbabilityStatistically) {
  // 4096 masks x 64 lanes = 262144 Bernoulli trials per p: the sample
  // fraction's standard error is sqrt(p(1-p)/262144) <= 0.001, so the
  // 0.01 band is a ~10 sigma gate.
  for (const double p : {0.1, 0.3, 0.5, 0.737, 0.9}) {
    Xoshiro256 rng = rng_stream(kSeed, static_cast<std::uint64_t>(p * 1000));
    std::uint64_t ones = 0;
    constexpr int kMasks = 4096;
    for (int i = 0; i < kMasks; ++i) {
      ones += static_cast<std::uint64_t>(std::popcount(bernoulli_mask(rng, p)));
    }
    const double fraction = static_cast<double>(ones) / (64.0 * kMasks);
    EXPECT_NEAR(fraction, p, 0.01) << "p = " << p;
  }
}

TEST(BernoulliMask, LanesAreIndependentAcrossDraws) {
  // Adjacent masks from one stream must not correlate lane-wise (the
  // bit-serial construction reuses draws across lanes WITHIN a mask, but
  // every mask consumes fresh draws). Count per-lane transitions: for
  // p=0.5 each lane's consecutive-mask pair hits each of the 4 outcomes
  // with probability 1/4.
  Xoshiro256 rng = rng_stream(kSeed, 99);
  constexpr int kPairs = 8192;
  std::uint64_t both = 0;
  std::uint64_t prev = bernoulli_mask(rng, 0.5);
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t cur = bernoulli_mask(rng, 0.5);
    both += static_cast<std::uint64_t>(std::popcount(prev & cur));
    prev = cur;
  }
  const double fraction = static_cast<double>(both) / (64.0 * kPairs);
  EXPECT_NEAR(fraction, 0.25, 0.01);
}

TEST(FusedSampling, ProbabilityOneMatchesReverseReachableClosure) {
  // p = 1 removes the randomness from the flips: every lane's IC set is
  // exactly the reverse-reachable closure of its root, fused or scalar.
  auto g = make_graph(gen_path(8));
  set_uniform_probability(g, 1.0f);
  FusedScratch scratch(g.num_vertices());
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       /*block=*/0, 0, kFusedLanes, scratch);
  EXPECT_EQ(stats.lanes, kFusedLanes);

  SamplerScratch scalar_scratch(g.num_vertices());
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    std::vector<VertexId> expected = sample_rrr(
        g.reverse, DiffusionModel::kIndependentCascade, kSeed, l,
        scalar_scratch);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(scratch.members[l], expected) << "lane " << l;
    EXPECT_TRUE(std::is_sorted(scratch.members[l].begin(),
                               scratch.members[l].end()));
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, ProbabilityZeroIsRootOnlyAndRootsMatchScalar) {
  auto g = make_graph(gen_path(8));
  set_uniform_probability(g, 0.0f);
  FusedScratch scratch(g.num_vertices());
  sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                   /*block=*/3, 0, kFusedLanes, scratch);
  SamplerScratch scalar_scratch(g.num_vertices());
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    // Lane l of block 3 is global slot 3*64+l — same root as scalar.
    const auto expected = sample_rrr(
        g.reverse, DiffusionModel::kIndependentCascade, kSeed, 3 * 64 + l,
        scalar_scratch);
    ASSERT_EQ(scratch.members[l].size(), 1u);
    EXPECT_EQ(scratch.members[l][0], expected[0]);
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, LTSetsAreBitIdenticalToScalar) {
  // LT is never fused: the kernel rejects it, and a fused sampler stages
  // LT through the scalar loop, so its sets are the scalar sets exactly.
  auto g = make_weighted_graph(gen_erdos_renyi(200, 1200, /*seed=*/11),
                               DiffusionModel::kLinearThreshold);
  FusedScratch scratch(g.num_vertices());
  EXPECT_THROW(sample_rrr_fused(g.reverse, DiffusionModel::kLinearThreshold,
                                kSeed, 0, 0, kFusedLanes, scratch),
               CheckError);

  constexpr std::size_t kSets = 10 * kFusedLanes;
  ShardedConfig config;
  config.shards = 2;
  config.model = DiffusionModel::kLinearThreshold;
  config.rng_seed = kSeed;
  config.fused = true;
  ShardedSampler sampler(g.reverse, config);
  SegmentedPool pool(g.num_vertices());
  pool.resize(kSets);
  sampler.generate(pool, 0, kSets, nullptr);
  const FlatPool fused = RRRPoolView(pool).flatten();
  const FlatPool scalar =
      RRRPoolView(testing::sample_pool(g, DiffusionModel::kLinearThreshold,
                                       kSets, kSeed,
                                       bitmap_cutoff(g.num_vertices())))
          .flatten();
  EXPECT_EQ(fused.offsets, scalar.offsets);
  EXPECT_EQ(fused.vertices, scalar.vertices);
}

TEST(FusedSampling, PartialLaneWindowTouchesOnlyItsLanes) {
  // A martingale round boundary clips the block's lane window; lanes
  // outside [lane_begin, lane_end) must not be drawn from or emitted.
  auto g = make_weighted_graph(gen_erdos_renyi(100, 600, /*seed=*/5),
                               DiffusionModel::kIndependentCascade);
  FusedScratch scratch(g.num_vertices());
  for (unsigned l = 0; l < kFusedLanes; ++l) scratch.members[l].assign(1, 0);
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       /*block=*/2, /*lane_begin=*/5, /*lane_end=*/9, scratch);
  EXPECT_EQ(stats.lanes, 4u);
  for (unsigned l = 5; l < 9; ++l) {
    EXPECT_FALSE(scratch.members[l].empty());
    EXPECT_TRUE(std::is_sorted(scratch.members[l].begin(),
                               scratch.members[l].end()));
  }
  // Untouched lanes keep their sentinel content (the traversal never
  // clears lanes outside the window).
  for (unsigned l = 0; l < 5; ++l) EXPECT_EQ(scratch.members[l].size(), 1u);
  for (unsigned l = 9; l < kFusedLanes; ++l) {
    EXPECT_EQ(scratch.members[l].size(), 1u);
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, FewerVerticesThanLanesSharesRoots) {
  // n < 64 forces root collisions; coalescing must merge those lanes
  // from the very first expansion without corrupting per-lane sets.
  auto g = make_weighted_graph(gen_erdos_renyi(7, 30, /*seed=*/3),
                               DiffusionModel::kIndependentCascade);
  FusedScratch scratch(g.num_vertices());
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       /*block=*/0, 0, kFusedLanes, scratch);
  EXPECT_EQ(stats.lanes, kFusedLanes);
  EXPECT_LE(stats.touched, 7u);
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    EXPECT_GE(scratch.members[l].size(), 1u);
    EXPECT_LE(scratch.members[l].size(), 7u);
    EXPECT_TRUE(std::is_sorted(scratch.members[l].begin(),
                               scratch.members[l].end()));
    EXPECT_TRUE(std::adjacent_find(scratch.members[l].begin(),
                                   scratch.members[l].end()) ==
                scratch.members[l].end());
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, SingleVertexGraphRejectedLikeScalar) {
  // An edgeless graph can carry no weights, so the fused kernel must
  // reject it with the same CheckError the scalar dispatch throws — not
  // crash or emit garbage lanes.
  auto g = make_graph({}, /*n=*/1);
  FusedScratch scratch(1);
  SamplerScratch scalar_scratch(1);
  EXPECT_THROW(sample_rrr_fused(g.reverse,
                                DiffusionModel::kIndependentCascade, kSeed, 0,
                                0, kFusedLanes, scratch),
               CheckError);
  EXPECT_THROW(sample_rrr(g.reverse, DiffusionModel::kIndependentCascade,
                          kSeed, 0, scalar_scratch),
               CheckError);
}

TEST(FusedSampling, TwoVertexGraphIsTheMinimalWorkingCase) {
  // The smallest weightable graph: 0 -> 1 with p = 1. Every lane's set
  // is {root} or {0, 1} depending on which root its stream draws.
  auto g = make_graph({{0, 1, 1.0f}}, /*n=*/2);
  set_uniform_probability(g, 1.0f);
  FusedScratch scratch(2);
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       0, 0, kFusedLanes, scratch);
  EXPECT_EQ(stats.lanes, kFusedLanes);
  EXPECT_LE(stats.touched, 2u);
  const std::vector<VertexId> root0 = {0};
  const std::vector<VertexId> both = {0, 1};
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    // Root 1 pulls in 0 through the live edge; root 0 has no in-edges.
    EXPECT_TRUE(scratch.members[l] == root0 || scratch.members[l] == both)
        << "lane " << l;
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, RejectsEmptyGraphAndBadWindows) {
  CSRGraph empty({0}, {});
  empty.ensure_weights(0.5f);
  FusedScratch scratch(1);
  EXPECT_THROW(sample_rrr_fused(empty, DiffusionModel::kIndependentCascade,
                                kSeed, 0, 0, kFusedLanes, scratch),
               CheckError);

  auto g = make_graph(gen_path(4));
  set_uniform_probability(g, 0.5f);
  FusedScratch s4(4);
  EXPECT_THROW(sample_rrr_fused(g.reverse,
                                DiffusionModel::kIndependentCascade, kSeed, 0,
                                /*lane_begin=*/3, /*lane_end=*/3, s4),
               CheckError);
  EXPECT_THROW(sample_rrr_fused(g.reverse,
                                DiffusionModel::kIndependentCascade, kSeed, 0,
                                /*lane_begin=*/0, /*lane_end=*/65, s4),
               CheckError);

  CSRGraph bare({0, 1}, {0});  // weights missing entirely
  FusedScratch s1(1);
  EXPECT_THROW(sample_rrr_fused(bare, DiffusionModel::kIndependentCascade,
                                kSeed, 0, 0, kFusedLanes, s1),
               CheckError);
}

TEST(FusedSampling, ArenaVariantMatchesMembersVariant) {
  // sample_rrr_fused_into is the staging-path twin: same traversal, runs
  // scattered straight into arena allocations. Outputs must be equal.
  const DiffusionModel model = DiffusionModel::kIndependentCascade;
  auto g = make_weighted_graph(gen_erdos_renyi(300, 2400, /*seed=*/17),
                               model);
  FusedScratch a(g.num_vertices());
  FusedScratch b(g.num_vertices());
  ShardArena arena;
  std::array<ShardArena::Ref, kFusedLanes> refs;
  for (const std::uint64_t block : {0ull, 4ull}) {
    const FusedTraversalStats sa =
        sample_rrr_fused(g.reverse, model, kSeed, block, 0, kFusedLanes, a);
    const FusedTraversalStats sb = sample_rrr_fused_into(
        g.reverse, model, kSeed, block, 0, kFusedLanes, b, arena,
        refs.data());
    EXPECT_EQ(sa.lanes, sb.lanes);
    EXPECT_EQ(sa.touched, sb.touched);
    EXPECT_EQ(sa.members, sb.members);
    for (unsigned l = 0; l < kFusedLanes; ++l) {
      const std::span<const VertexId> run = arena.view(refs[l]);
      EXPECT_EQ(std::vector<VertexId>(run.begin(), run.end()), a.members[l])
          << "block " << block << " lane " << l;
    }
    expect_scratch_clean(a);
    expect_scratch_clean(b);
  }
}

TEST(FusedSampling, DeterministicAcrossScratchReuse) {
  // Slot content = f(seed, block, lane window): repeating a traversal on
  // a dirty-history scratch must reproduce the first run bit-for-bit.
  auto g = make_weighted_graph(gen_erdos_renyi(150, 900, /*seed=*/23),
                               DiffusionModel::kIndependentCascade);
  FusedScratch scratch(g.num_vertices());
  sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed, 1, 0,
                   kFusedLanes, scratch);
  std::array<std::vector<VertexId>, kFusedLanes> first;
  for (unsigned l = 0; l < kFusedLanes; ++l) first[l] = scratch.members[l];

  sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed, 9, 0,
                   kFusedLanes, scratch);  // unrelated block in between
  sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed, 1, 0,
                   kFusedLanes, scratch);
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    EXPECT_EQ(scratch.members[l], first[l]) << "lane " << l;
  }
}

}  // namespace
}  // namespace eimm
