// Property-style sweeps over the selection kernels' tunables: whatever
// the representation threshold, batch size, or scheduling mode, the
// greedy max-coverage output must not change — only its cost may.
#include <gtest/gtest.h>

#include <set>

#include "seedselect/select.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

const DiffusionGraph& sweep_graph() {
  static const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.02, 31);
  return g;
}

/// 250 sampled IC sets; those of at least `cutoff` members are bitmap
/// runs.
SegmentedPool pool_with_cutoff(std::size_t cutoff) {
  return testing::sample_pool(sweep_graph(),
                              DiffusionModel::kIndependentCascade, 250, 555,
                              cutoff);
}

/// The pool at the production bitmap crossover.
SegmentedPool adaptive_pool() {
  return pool_with_cutoff(bitmap_cutoff(sweep_graph().num_vertices()));
}

/// Bitmap crossover as a fraction of |V|.
class BitmapThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(BitmapThresholdSweep, SelectionInvariantUnderRepresentation) {
  const SegmentedPool reference_pool = pool_with_cutoff(testing::kRunsOnly);
  const auto cutoff = static_cast<std::size_t>(
      GetParam() * static_cast<double>(reference_pool.num_vertices()));
  const SegmentedPool pool = pool_with_cutoff(cutoff);
  if (GetParam() == 0.0) {
    ASSERT_EQ(pool.bitmap_count(), pool.size());
  }

  SelectionOptions options;
  options.k = 10;
  CounterArray a(reference_pool.num_vertices());
  CounterArray b(pool.num_vertices());
  const auto reference = efficient_select(reference_pool, a, options);
  const auto variant = efficient_select(pool, b, options);
  EXPECT_EQ(variant.seeds, reference.seeds);
  EXPECT_EQ(variant.covered_sets, reference.covered_sets);
  EXPECT_EQ(variant.marginal_coverage, reference.marginal_coverage);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, BitmapThresholdSweep,
                         ::testing::Values(0.0,    // everything bitmap
                                           0.01, 0.03125, 0.1, 0.5));

class BatchSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSizeSweep, SelectionInvariantUnderBatching) {
  const SegmentedPool pool = adaptive_pool();
  SelectionOptions reference_options;
  reference_options.k = 8;
  reference_options.dynamic_balance = false;
  CounterArray a(pool.num_vertices());
  const auto reference = efficient_select(pool, a, reference_options);

  SelectionOptions options;
  options.k = 8;
  options.dynamic_balance = true;
  options.batch_size = GetParam();
  CounterArray b(pool.num_vertices());
  const auto variant = efficient_select(pool, b, options);
  EXPECT_EQ(variant.seeds, reference.seeds);
  EXPECT_EQ(variant.covered_sets, reference.covered_sets);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSizeSweep,
                         ::testing::Values(1, 3, 16, 64, 1024));

TEST(SelectionProperties, CoveredSetsMatchesIndependentUnionCount) {
  const SegmentedPool pool = adaptive_pool();
  SelectionOptions options;
  options.k = 12;
  CounterArray counters(pool.num_vertices());
  const auto result = efficient_select(pool, counters, options);

  // Recount coverage from scratch: a set is covered iff it contains any
  // selected seed.
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (const VertexId seed : result.seeds) {
      if (pool[i].contains(seed)) {
        ++covered;
        break;
      }
    }
  }
  EXPECT_EQ(result.covered_sets, covered);
}

TEST(SelectionProperties, SumOfMarginalsEqualsCoveredSets) {
  const SegmentedPool pool = adaptive_pool();
  SelectionOptions options;
  options.k = 12;
  CounterArray counters(pool.num_vertices());
  const auto result = efficient_select(pool, counters, options);
  std::uint64_t marginal_sum = 0;
  for (const std::uint64_t m : result.marginal_coverage) marginal_sum += m;
  EXPECT_EQ(marginal_sum, result.covered_sets);
}

TEST(SelectionProperties, SeedsAreDistinct) {
  const SegmentedPool pool = adaptive_pool();
  SelectionOptions options;
  options.k = 20;
  CounterArray counters(pool.num_vertices());
  const auto result = efficient_select(pool, counters, options);
  const std::set<VertexId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), result.seeds.size());
}

TEST(SelectionProperties, LargerKNeverCoversLess) {
  const SegmentedPool pool = adaptive_pool();
  std::uint64_t previous = 0;
  for (const std::size_t k : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    SelectionOptions options;
    options.k = k;
    CounterArray counters(pool.num_vertices());
    const auto result = efficient_select(pool, counters, options);
    EXPECT_GE(result.covered_sets, previous) << "k=" << k;
    previous = result.covered_sets;
  }
}

class CounterShardSweep : public ::testing::TestWithParam<int> {};

TEST_P(CounterShardSweep, SelectionInvariantUnderCounterSharding) {
  // The sharded counter layout moves WHERE counter updates land, never
  // what the greedy picks: every shard count must reproduce the flat
  // kernel's seeds, marginals, and coverage bit for bit.
  const SegmentedPool pool = adaptive_pool();
  SelectionOptions options;
  options.k = 10;
  CounterArray flat(pool.num_vertices());
  const auto reference = efficient_select(pool, flat, options);

  ShardedCounterArray sharded(pool.num_vertices(), GetParam());
  const auto variant =
      efficient_select_t<NullMem, ShardedCounterArray>(pool, sharded,
                                                       options);
  EXPECT_EQ(variant.seeds, reference.seeds);
  EXPECT_EQ(variant.marginal_coverage, reference.marginal_coverage);
  EXPECT_EQ(variant.covered_sets, reference.covered_sets);
  EXPECT_EQ(variant.rebuild_rounds, reference.rebuild_rounds);
}

INSTANTIATE_TEST_SUITE_P(Shards, CounterShardSweep,
                         ::testing::Values(1, 2, 3, 8));

TEST(SelectionProperties, ShardedCountersHonorEligibilityMask) {
  // Eligibility-masked arg-max over the sharded layout: same constrained
  // seed set as the flat reference, and the masked vertices never appear.
  const SegmentedPool pool = adaptive_pool();
  SelectionOptions options;
  options.k = 8;
  std::vector<std::uint8_t> eligible(pool.num_vertices(), 1);
  // Mask out the unconstrained winners so the mask provably bites.
  {
    CounterArray probe(pool.num_vertices());
    const auto unconstrained = efficient_select(pool, probe, options);
    ASSERT_FALSE(unconstrained.seeds.empty());
    eligible[unconstrained.seeds.front()] = 0;
  }
  options.eligible = &eligible;

  CounterArray flat(pool.num_vertices());
  const auto reference = efficient_select(pool, flat, options);
  for (const int shards : {2, 4}) {
    ShardedCounterArray sharded(pool.num_vertices(), shards);
    const auto variant =
        efficient_select_t<NullMem, ShardedCounterArray>(pool, sharded,
                                                         options);
    EXPECT_EQ(variant.seeds, reference.seeds) << shards << " shards";
    EXPECT_EQ(variant.covered_sets, reference.covered_sets)
        << shards << " shards";
    for (const VertexId seed : variant.seeds) {
      EXPECT_EQ(eligible[seed], 1) << "masked vertex selected";
    }
  }
}

TEST(SelectionProperties, ShardedNonAdaptiveDecrementOnlyPathMatches) {
  // The decrement-only ablation (adaptive_update = false) exercises the
  // cross-replica decrement wrap-around on every round.
  const SegmentedPool pool = adaptive_pool();
  SelectionOptions options;
  options.k = 10;
  options.adaptive_update = false;
  CounterArray flat(pool.num_vertices());
  const auto reference = efficient_select(pool, flat, options);
  ShardedCounterArray sharded(pool.num_vertices(), 3);
  const auto variant =
      efficient_select_t<NullMem, ShardedCounterArray>(pool, sharded,
                                                       options);
  EXPECT_EQ(variant.seeds, reference.seeds);
  EXPECT_EQ(variant.covered_sets, reference.covered_sets);
  EXPECT_EQ(variant.rebuild_rounds, 0u);
}

TEST(SelectionProperties, GreedyPrefixProperty) {
  // Greedy is prefix-stable: the first j seeds of a k-seed run equal the
  // full output of a j-seed run.
  const SegmentedPool pool = adaptive_pool();
  SelectionOptions big;
  big.k = 12;
  CounterArray a(pool.num_vertices());
  const auto full = efficient_select(pool, a, big);
  for (const std::size_t j : {1ul, 4ul, 8ul}) {
    SelectionOptions small;
    small.k = j;
    CounterArray b(pool.num_vertices());
    const auto prefix = efficient_select(pool, b, small);
    ASSERT_LE(prefix.seeds.size(), full.seeds.size());
    for (std::size_t i = 0; i < prefix.seeds.size(); ++i) {
      EXPECT_EQ(prefix.seeds[i], full.seeds[i]) << "j=" << j << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace eimm
