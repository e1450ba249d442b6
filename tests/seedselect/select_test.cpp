#include "seedselect/select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "test_util.hpp"

namespace eimm {
namespace {

using testing::make_pool;

// The worked example from Fig. 3 of the paper:
// sets {0,1},{1},{2,4},{1,4},{1,4,5},{3},{0,3},{2} over 6 vertices.
SegmentedPool fig3_pool() {
  return make_pool(6, {{0, 1}, {1}, {2, 4}, {1, 4}, {1, 4, 5}, {3}, {0, 3},
                       {2}});
}

// Reference: serial greedy max-coverage with lowest-id tie-break.
std::vector<VertexId> reference_greedy(const RRRPoolView& pool,
                                       std::size_t k) {
  const VertexId n = pool.num_vertices();
  std::vector<bool> alive(pool.size(), true);
  std::vector<VertexId> seeds;
  for (std::size_t round = 0; round < k; ++round) {
    std::vector<std::uint64_t> counts(n, 0);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!alive[i]) continue;
      pool[i].for_each([&](VertexId v) { counts[v]++; });
    }
    VertexId best = 0;
    for (VertexId v = 1; v < n; ++v) {
      if (counts[v] > counts[best]) best = v;
    }
    if (counts[best] == 0) break;
    seeds.push_back(best);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (alive[i] && pool[i].contains(best)) alive[i] = false;
    }
  }
  return seeds;
}

SelectionResult run_efficient(const RRRPoolView& pool,
                              SelectionOptions options) {
  CounterArray counters(pool.num_vertices());
  return efficient_select(pool, counters, options);
}

TEST(EfficientSelect, Fig3FirstSeedIsVertex1) {
  // Vertex 1 appears in {0,1},{1},{1,4},{1,4,5} -> count 4, the maximum.
  const SegmentedPool pool = fig3_pool();
  SelectionOptions options;
  options.k = 1;
  const auto result = run_efficient(pool, options);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 1u);
  EXPECT_EQ(result.marginal_coverage[0], 4u);
  EXPECT_EQ(result.covered_sets, 4u);
}

TEST(EfficientSelect, Fig3FullSelection) {
  const SegmentedPool pool = fig3_pool();
  SelectionOptions options;
  options.k = 6;
  const auto result = run_efficient(pool, options);
  EXPECT_EQ(result.seeds, reference_greedy(pool, 6));
  // All 8 sets are coverable.
  EXPECT_EQ(result.covered_sets, 8u);
  EXPECT_DOUBLE_EQ(result.coverage_fraction(), 1.0);
}

TEST(EfficientSelect, MatchesReferenceGreedyOnRandomPools) {
  auto g = testing::make_weighted_graph(
      gen_erdos_renyi(200, 1000, 13), DiffusionModel::kIndependentCascade);
  const SegmentedPool pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 300, 77);
  SelectionOptions options;
  options.k = 10;
  const auto result = run_efficient(pool, options);
  EXPECT_EQ(result.seeds, reference_greedy(pool, 10));
}

TEST(EfficientSelect, AdaptiveOnOffIdenticalSeeds) {
  auto g = testing::make_weighted_graph(
      gen_barabasi_albert(300, 2, 5), DiffusionModel::kIndependentCascade);
  const SegmentedPool pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 200, 3);
  SelectionOptions adaptive;
  adaptive.k = 8;
  adaptive.adaptive_update = true;
  SelectionOptions plain = adaptive;
  plain.adaptive_update = false;
  const auto a = run_efficient(pool, adaptive);
  const auto b = run_efficient(pool, plain);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.covered_sets, b.covered_sets);
  EXPECT_EQ(a.marginal_coverage, b.marginal_coverage);
}

TEST(EfficientSelect, RebuildTriggersOnSkewedPool) {
  // One mega-hub vertex 0 contained in nearly every set: after picking
  // it, decrement would touch almost everything, so rebuild must win.
  std::vector<std::vector<VertexId>> sets;
  for (VertexId i = 1; i < 50; ++i) {
    sets.push_back({0, i, static_cast<VertexId>(i + 50)});
  }
  sets.push_back({70});
  const SegmentedPool pool = make_pool(200, sets);
  SelectionOptions options;
  options.k = 2;
  options.adaptive_update = true;
  const auto result = run_efficient(pool, options);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_GE(result.rebuild_rounds, 1u);
}

TEST(EfficientSelect, PrebuiltCountersSkipInitialBuild) {
  const SegmentedPool pool = fig3_pool();
  CounterArray counters(pool.num_vertices());
  // Manually build counters (what the fused generation kernel does).
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].for_each([&](VertexId v) { counters.increment(v); });
  }
  SelectionOptions options;
  options.k = 3;
  options.counters_prebuilt = true;
  const auto fused = efficient_select(pool, counters, options);

  SelectionOptions plain;
  plain.k = 3;
  const auto unfused = run_efficient(pool, plain);
  EXPECT_EQ(fused.seeds, unfused.seeds);
  EXPECT_EQ(fused.covered_sets, unfused.covered_sets);
}

TEST(EfficientSelect, DynamicBalanceOnOffIdentical) {
  const SegmentedPool pool = fig3_pool();
  SelectionOptions dynamic;
  dynamic.k = 4;
  dynamic.dynamic_balance = true;
  SelectionOptions fixed = dynamic;
  fixed.dynamic_balance = false;
  EXPECT_EQ(run_efficient(pool, dynamic).seeds,
            run_efficient(pool, fixed).seeds);
}

TEST(EfficientSelect, MarginalGainsNonIncreasing) {
  auto g = testing::make_weighted_graph(
      gen_erdos_renyi(300, 2000, 17), DiffusionModel::kIndependentCascade);
  const SegmentedPool pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 400, 11);
  SelectionOptions options;
  options.k = 15;
  const auto result = run_efficient(pool, options);
  for (std::size_t i = 1; i < result.marginal_coverage.size(); ++i) {
    EXPECT_LE(result.marginal_coverage[i], result.marginal_coverage[i - 1]);
  }
}

TEST(EfficientSelect, StopsWhenEverythingCovered) {
  const SegmentedPool pool = make_pool(5, {{0}, {0, 1}});
  SelectionOptions options;
  options.k = 5;
  const auto result = run_efficient(pool, options);
  EXPECT_EQ(result.seeds.size(), 1u);  // seed 0 covers both sets
  EXPECT_EQ(result.covered_sets, 2u);
}

TEST(EfficientSelect, BitmapPoolsSelectIdentically) {
  auto g = testing::make_weighted_graph(
      gen_watts_strogatz(200, 3, 0.1, 3), DiffusionModel::kIndependentCascade);
  const SegmentedPool vector_pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 150, 21);
  const SegmentedPool adaptive_pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 150, 21,
      bitmap_cutoff(g.num_vertices()));
  SelectionOptions options;
  options.k = 6;
  const auto a = run_efficient(vector_pool, options);
  const auto b = run_efficient(adaptive_pool, options);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.covered_sets, b.covered_sets);
}

TEST(EfficientSelect, KMustBePositive) {
  const SegmentedPool pool = fig3_pool();
  CounterArray counters(pool.num_vertices());
  SelectionOptions options;
  options.k = 0;
  EXPECT_THROW(efficient_select(pool, counters, options), CheckError);
}

TEST(RipplesSelect, Fig3MatchesEfficient) {
  const SegmentedPool pool = fig3_pool();
  SelectionOptions options;
  options.k = 6;
  const auto baseline = ripples_select(pool, options);
  const auto efficient = run_efficient(pool, options);
  EXPECT_EQ(baseline.seeds, efficient.seeds);
  EXPECT_EQ(baseline.covered_sets, efficient.covered_sets);
  EXPECT_EQ(baseline.marginal_coverage, efficient.marginal_coverage);
}

TEST(RipplesSelect, MatchesReferenceGreedy) {
  auto g = testing::make_weighted_graph(
      gen_erdos_renyi(150, 900, 19), DiffusionModel::kIndependentCascade);
  const SegmentedPool pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 250, 5);
  SelectionOptions options;
  options.k = 7;
  EXPECT_EQ(ripples_select(pool, options).seeds, reference_greedy(pool, 7));
}

TEST(RipplesSelect, HandlesBitmapSetsToo) {
  // The baseline normally sees only sorted vectors, but its kernel must
  // stay correct if fed adaptive pools.
  auto g = testing::make_weighted_graph(
      gen_watts_strogatz(100, 3, 0.1, 23), DiffusionModel::kIndependentCascade);
  const SegmentedPool pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 100, 31,
      bitmap_cutoff(g.num_vertices()));
  SelectionOptions options;
  options.k = 4;
  EXPECT_EQ(ripples_select(pool, options).seeds, reference_greedy(pool, 4));
}

TEST(SelectionResult, CoverageFractionEmptyPool) {
  SelectionResult r;
  EXPECT_DOUBLE_EQ(r.coverage_fraction(), 0.0);
}

}  // namespace
}  // namespace eimm
