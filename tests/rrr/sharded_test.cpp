// Property and negative-path coverage for the NUMA-sharded sampling
// pipeline: plan partitioning invariants, arena staging, and the staged
// pool's bit-identity with the serial reference under degenerate shapes
// — empty shards, one giant shard, shard count > thread count > node
// count, and oversubscribed thread requests via resolve_threads. The
// whole file is sanitizer-hot: it runs under the asan preset like every
// suite, and the arena paths are exactly what ASan needs to see.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/generators.hpp"
#include "rrr/sharded.hpp"
#include "runtime/thread_info.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

DiffusionGraph small_graph(DiffusionModel model, std::uint64_t seed = 13) {
  return testing::make_weighted_graph(gen_erdos_renyi(200, 900, seed), model);
}

ShardedConfig config_for(DiffusionModel model, int shards,
                         bool adaptive = true) {
  ShardedConfig config;
  config.shards = shards;
  config.model = model;
  config.rng_seed = 0xABCD;
  config.batch_size = 4;
  config.adaptive_representation = adaptive;
  return config;
}

/// Generates `count` sets through the sharded pipeline and asserts the
/// flattened image — and which sets are bitmap runs — matches the serial
/// per-index reference sampler.
void expect_matches_serial(const DiffusionGraph& g, const ShardedConfig& config,
                           std::size_t count) {
  ShardedSampler sampler(g.reverse, config);
  SegmentedPool pool(g.num_vertices());
  pool.resize(count);
  sampler.generate(pool, 0, count, nullptr);

  const SegmentedPool reference = testing::sample_pool(
      g, config.model, count, 0xABCD,
      config.adaptive_representation ? bitmap_cutoff(g.num_vertices())
                                     : testing::kRunsOnly);
  const FlatPool a = RRRPoolView(pool).flatten();
  const FlatPool b = RRRPoolView(reference).flatten();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(pool[i].repr(), reference[i].repr()) << "slot " << i;
  }
}

void expect_matches_serial(const DiffusionGraph& g, DiffusionModel model,
                           std::size_t count, int shards, bool adaptive) {
  expect_matches_serial(g, config_for(model, shards, adaptive), count);
}

/// Arena bytes a pool of `reference`'s sets stages: bitmap words for
/// bitmap sets, 4-byte ids for sorted runs.
std::uint64_t staged_payload_bytes(const SegmentedPool& reference) {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    bytes += reference[i].repr() == RRRRepr::kBitmap
                 ? words_for_bits(reference.num_vertices()) * 8
                 : reference[i].size() * sizeof(VertexId);
  }
  return bytes;
}

// --- ShardPlan invariants ---

TEST(ShardPlan, SlicesPartitionTheRangeExactly) {
  const NumaTopology& topo = numa_topology();
  for (const int shards : {1, 2, 3, 7, 16}) {
    const ShardPlan plan = ShardPlan::make(100, 420, shards, 4, topo);
    ASSERT_EQ(plan.shards.size(), static_cast<std::size_t>(shards));
    std::uint64_t cursor = 100;
    std::uint64_t total = 0;
    for (const ShardPlan::Shard& shard : plan.shards) {
      EXPECT_EQ(shard.begin, cursor);  // contiguous, no gap, no overlap
      EXPECT_LE(shard.begin, shard.end);
      cursor = shard.end;
      total += shard.size();
    }
    EXPECT_EQ(cursor, 420u);
    EXPECT_EQ(total, 320u);
  }
}

TEST(ShardPlan, MoreShardsThanSetsYieldsEmptyShards) {
  const ShardPlan plan = ShardPlan::make(0, 3, 8, 4, numa_topology());
  std::size_t empty = 0;
  std::uint64_t total = 0;
  for (const ShardPlan::Shard& shard : plan.shards) {
    empty += shard.empty() ? 1 : 0;
    total += shard.size();
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(empty, 5u);
}

TEST(ShardPlan, WorkerGroupsPartitionWorkersWhenWorkersOutnumberShards) {
  const ShardPlan plan = ShardPlan::make(0, 1000, 3, 8, numa_topology());
  std::size_t covered = 0;
  std::size_t cursor = 0;
  for (const ShardPlan::Shard& shard : plan.shards) {
    EXPECT_GE(shard.worker_count, 1u);
    EXPECT_EQ(shard.first_worker, cursor);
    cursor += shard.worker_count;
    covered += shard.worker_count;
  }
  EXPECT_EQ(covered, 8u);
}

TEST(ShardPlan, EveryShardServedWhenShardsOutnumberWorkers) {
  const ShardPlan plan = ShardPlan::make(0, 1000, 9, 2, numa_topology());
  std::vector<bool> served(9, false);
  for (std::size_t w = 0; w < plan.total_workers; ++w) {
    for (const std::size_t s : plan.shards_for_worker(w)) {
      EXPECT_FALSE(served[s]) << "shard " << s << " served twice";
      served[s] = true;
      EXPECT_EQ(plan.shards[s].worker_count, 1u);
    }
  }
  for (std::size_t s = 0; s < served.size(); ++s) {
    EXPECT_TRUE(served[s]) << "shard " << s << " unserved";
  }
}

TEST(ShardPlan, DomainsComeFromTheTopology) {
  const NumaTopology& topo = numa_topology();
  const ShardPlan plan = ShardPlan::make(0, 64, 6, 2, topo);
  for (const ShardPlan::Shard& shard : plan.shards) {
    EXPECT_NE(std::find(topo.nodes.begin(), topo.nodes.end(), shard.domain),
              topo.nodes.end());
  }
}

// --- ShardArena staging ---

TEST(ShardArena, RoundTripsRunsAcrossChunkBoundaries) {
  ShardArena arena(/*chunk_vertices=*/8);
  std::vector<std::vector<VertexId>> runs = {
      {1, 2, 3, 4, 5}, {6, 7, 8}, {9}, {10, 11, 12, 13, 14, 15, 16},
      {}, {17, 18}};
  std::vector<ShardArena::Ref> refs;
  for (const auto& run : runs) refs.push_back(arena.append(run));
  ASSERT_EQ(arena.runs(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto view = arena.view(refs[i]);
    EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), runs[i]);
  }
}

TEST(ShardArena, RunLargerThanChunkGetsDedicatedChunk) {
  ShardArena arena(/*chunk_vertices=*/4);
  std::vector<VertexId> giant(1000);
  std::iota(giant.begin(), giant.end(), 0);
  const auto ref = arena.append(giant);
  const auto view = arena.view(ref);
  EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), giant);
  EXPECT_GE(arena.mapped_bytes(), giant.size() * sizeof(VertexId));
}

// --- Bit-identity with the serial reference under degenerate shapes ---

TEST(ShardedSampler, EmptyShardsMergeCleanly) {
  // 3 sets across 8 shards: five shards stage nothing.
  const auto g = small_graph(DiffusionModel::kIndependentCascade);
  expect_matches_serial(g, DiffusionModel::kIndependentCascade, 3, 8, true);
}

TEST(ShardedSampler, OneGiantShardMatchesSerial) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade);
  expect_matches_serial(g, DiffusionModel::kIndependentCascade, 400, 1,
                        true);
}

TEST(ShardedSampler, ZeroSetsIsANoOp) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade);
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 4));
  SegmentedPool pool(g.num_vertices());
  sampler.generate(pool, 0, 0, nullptr);
  EXPECT_EQ(pool.size(), 0u);
  std::uint64_t staged = 0;
  for (const std::uint64_t s : sampler.stats().sets_per_shard) staged += s;
  EXPECT_EQ(staged, 0u);
}

TEST(ShardedSampler, ShardsAboveThreadsAboveNodes) {
  // shard count (5) > thread count (2) > NUMA node count (1 on CI).
  const auto g = small_graph(DiffusionModel::kLinearThreshold);
  ThreadCountScope scope(2);
  expect_matches_serial(g, DiffusionModel::kLinearThreshold, 123, 5, true);
}

TEST(ShardedSampler, OversubscribedThreadsViaResolveThreads) {
  // resolve_threads honors explicit oversubscription requests verbatim;
  // the pipeline must stay correct when workers outnumber cores.
  const auto g = small_graph(DiffusionModel::kIndependentCascade);
  const int oversubscribed = resolve_threads(4 * max_threads());
  ASSERT_GT(oversubscribed, max_threads());
  ThreadCountScope scope(oversubscribed);
  expect_matches_serial(g, DiffusionModel::kIndependentCascade, 200, 3,
                        true);
}

TEST(ShardedSampler, VectorOnlyRepresentationMatchesSerial) {
  // The dist/ wire format and Ripples configuration
  // (adaptive_representation = false): sorted runs only.
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 29);
  expect_matches_serial(g, DiffusionModel::kIndependentCascade, 150, 4,
                        false);
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 4, false));
  SegmentedPool pool(g.num_vertices());
  pool.resize(150);
  sampler.generate(pool, 0, 150, nullptr);
  EXPECT_EQ(RRRPoolView(pool).bitmap_count(), 0u);
}

TEST(ShardedSampler, AdaptiveStagesDenseSetsAsBitmapRuns) {
  // A set of at least bitmap_cutoff(n) members becomes a bitmap run;
  // smaller sets stay sorted runs.
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 71);
  const auto model = DiffusionModel::kIndependentCascade;
  constexpr std::size_t kSets = 200;
  ShardedSampler sampler(g.reverse, config_for(model, 2));
  SegmentedPool pool(g.num_vertices());
  pool.resize(kSets);
  sampler.generate(pool, 0, kSets, nullptr);

  const SegmentedPool reference =
      testing::sample_pool(g, model, kSets, 0xABCD);
  const std::size_t cutoff = bitmap_cutoff(g.num_vertices());
  std::size_t dense = 0;
  for (std::size_t i = 0; i < kSets; ++i) {
    const bool is_dense = reference[i].size() >= cutoff;
    dense += is_dense ? 1 : 0;
    EXPECT_EQ(pool[i].repr(),
              is_dense ? RRRRepr::kBitmap : RRRRepr::kVector)
        << "slot " << i;
    EXPECT_EQ(pool[i].size(), reference[i].size()) << "slot " << i;
  }
  ASSERT_GT(dense, 0u) << "workload produced no dense sets";
  ASSERT_LT(dense, kSets) << "workload produced no sparse sets";
  EXPECT_EQ(RRRPoolView(pool).bitmap_count(), dense);
}

TEST(ShardedSampler, StaticSplitMatchesSerial) {
  // dynamic_balance = false: one contiguous block per worker, no steals.
  const auto g = small_graph(DiffusionModel::kLinearThreshold, 73);
  for (const int shards : {1, 3}) {
    ShardedConfig config =
        config_for(DiffusionModel::kLinearThreshold, shards);
    config.dynamic_balance = false;
    expect_matches_serial(g, config, 157);

    ShardedSampler sampler(g.reverse, config);
    SegmentedPool pool(g.num_vertices());
    pool.resize(157);
    sampler.generate(pool, 0, 157, nullptr);
    for (const std::uint64_t steals : sampler.stats().steals_per_shard) {
      EXPECT_EQ(steals, 0u);
    }
  }
}

TEST(ShardedSampler, GrowingRangesMatchOneShotGeneration) {
  // The martingale driver calls generate() with growing ranges; the
  // union must equal a single-range build.
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 31);
  const auto model = DiffusionModel::kIndependentCascade;
  ShardedSampler incremental(g.reverse, config_for(model, 3));
  SegmentedPool grown(g.num_vertices());
  grown.resize(40);
  incremental.generate(grown, 0, 40, nullptr);
  grown.resize(170);
  incremental.generate(grown, 40, 170, nullptr);

  ShardedSampler oneshot(g.reverse, config_for(model, 3));
  SegmentedPool whole(g.num_vertices());
  whole.resize(170);
  oneshot.generate(whole, 0, 170, nullptr);

  const FlatPool a = RRRPoolView(grown).flatten();
  const FlatPool b = RRRPoolView(whole).flatten();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);
}

TEST(ShardedSampler, FusedCountersCountMembership) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 37);
  const auto model = DiffusionModel::kIndependentCascade;
  constexpr std::size_t kSets = 120;

  ShardedSampler sampler(g.reverse, config_for(model, 4));
  SegmentedPool pool(g.num_vertices());
  pool.resize(kSets);
  CounterArray counters(g.num_vertices());
  sampler.generate(pool, 0, kSets, &counters);

  std::vector<std::uint64_t> expected(g.num_vertices(), 0);
  for (std::size_t i = 0; i < kSets; ++i) {
    pool[i].for_each([&](VertexId v) { ++expected[v]; });
  }
  EXPECT_EQ(counters.snapshot(), expected);
}

TEST(ShardedSampler, StatsDescribeThePlan) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 41);
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 4));
  SegmentedPool pool(g.num_vertices());
  pool.resize(100);
  sampler.generate(pool, 0, 100, nullptr);

  const ShardStats& stats = sampler.stats();
  ASSERT_EQ(stats.sets_per_shard.size(), 4u);
  EXPECT_EQ(std::accumulate(stats.sets_per_shard.begin(),
                            stats.sets_per_shard.end(), std::uint64_t{0}),
            100u);
  EXPECT_EQ(stats.shard_domains.size(), 4u);
  EXPECT_GE(stats.numa_domains, 1);
  EXPECT_GT(stats.staged_bytes, 0u);
}

// --- Zero-copy SegmentedPool path ---

TEST(ShardedSampler, ZeroCopyGenerateMatchesSerialReference) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 47);
  const auto model = DiffusionModel::kIndependentCascade;
  constexpr std::size_t kSets = 180;

  ShardedSampler sampler(g.reverse, config_for(model, 4));
  SegmentedPool segments(g.num_vertices());
  segments.resize(kSets);
  sampler.generate(segments, 0, kSets, nullptr);

  const SegmentedPool reference = testing::sample_pool(
      g, model, kSets, 0xABCD, bitmap_cutoff(g.num_vertices()));
  const FlatPool a = RRRPoolView(segments).flatten();
  const FlatPool b = RRRPoolView(reference).flatten();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);

  // Every set was staged exactly once, in its adaptive representation.
  EXPECT_EQ(sampler.stats().staged_bytes, staged_payload_bytes(reference));
}

TEST(ShardedSampler, ZeroCopyGrowingRangesRetainEarlierRounds) {
  // The martingale probe loop extends the pool; earlier rounds' entries
  // must stay valid (the arenas are never reset on this path).
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 53);
  const auto model = DiffusionModel::kIndependentCascade;

  ShardedSampler sampler(g.reverse, config_for(model, 3));
  SegmentedPool segments(g.num_vertices());
  segments.resize(50);
  sampler.generate(segments, 0, 50, nullptr);
  const FlatPool first_round = RRRPoolView(segments).flatten();
  segments.resize(200);
  sampler.generate(segments, 50, 200, nullptr);

  const SegmentedPool reference = testing::sample_pool(
      g, model, 200, 0xABCD, bitmap_cutoff(g.num_vertices()));
  const FlatPool grown = RRRPoolView(segments).flatten();
  const FlatPool whole = RRRPoolView(reference).flatten();
  EXPECT_EQ(grown.offsets, whole.offsets);
  EXPECT_EQ(grown.vertices, whole.vertices);
  // Round 1's slots are a prefix of the final image, untouched.
  for (std::size_t i = 0; i < first_round.offsets.size(); ++i) {
    EXPECT_EQ(grown.offsets[i], first_round.offsets[i]);
  }
}

TEST(ShardedSampler, ZeroCopyFusedCountersCountMembership) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 59);
  constexpr std::size_t kSets = 90;
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 4));
  SegmentedPool segments(g.num_vertices());
  segments.resize(kSets);
  CounterArray counters(g.num_vertices());
  sampler.generate(segments, 0, kSets, &counters);

  std::vector<std::uint64_t> expected(g.num_vertices(), 0);
  const RRRPoolView view(segments);
  for (std::size_t i = 0; i < kSets; ++i) {
    view[i].for_each([&](VertexId v) { ++expected[v]; });
  }
  EXPECT_EQ(counters.snapshot(), expected);
}

TEST(ShardedSampler, ResetArenasReusesChunksAcrossRounds) {
  // The compressed-pool build rewinds the pool's arenas after encoding
  // each round: round N+1 must reuse the chunks round N mapped, so
  // mapped_bytes plateaus while staged_bytes keeps accumulating.
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 61);
  // Two workers, one per shard: every worker stages in BOTH rounds, so
  // the mapped-bytes plateau is deterministic (with more workers than
  // batches, which workers win batches — and thus map chunks — races).
  ThreadCountScope scope(2);
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 2));
  SegmentedPool pool(g.num_vertices());

  pool.resize(100);
  sampler.generate(pool, 0, 100, nullptr);
  const ShardStats round1 = sampler.stats();
  ASSERT_GT(round1.staged_bytes, 0u);
  EXPECT_EQ(round1.mapped_bytes, pool.mapped_bytes());

  pool.reset_arenas();
  pool.resize(200);
  sampler.generate(pool, 100, 200, nullptr);
  const ShardStats round2 = sampler.stats();
  EXPECT_GT(round2.staged_bytes, round1.staged_bytes);
  // Similar round volume → the reused chunks absorb it without mapping
  // a fresh arena set (chunk granularity is far above these payloads).
  EXPECT_EQ(round2.mapped_bytes, round1.mapped_bytes);
  const SegmentedPool reference = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 200, 0xABCD,
      bitmap_cutoff(g.num_vertices()));
  for (std::size_t i = 100; i < 200; ++i) {
    EXPECT_EQ(testing::members_of(pool[i]), testing::members_of(reference[i]))
        << "slot " << i;
  }
}

TEST(ShardedSampler, RejectsInvalidConfigurations) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 43);
  ShardedConfig zero_shards =
      config_for(DiffusionModel::kIndependentCascade, 1);
  zero_shards.shards = 0;
  EXPECT_THROW((void)ShardedSampler(g.reverse, zero_shards), CheckError);

  ShardedConfig zero_batch =
      config_for(DiffusionModel::kIndependentCascade, 2);
  zero_batch.batch_size = 0;
  EXPECT_THROW((void)ShardedSampler(g.reverse, zero_batch), CheckError);

  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 2));
  SegmentedPool pool(g.num_vertices());
  pool.resize(10);
  EXPECT_THROW(sampler.generate(pool, 0, 11, nullptr), CheckError);
  SegmentedPool other_graph(g.num_vertices() + 1);
  other_graph.resize(10);
  EXPECT_THROW(sampler.generate(other_graph, 0, 10, nullptr), CheckError);
}

}  // namespace
}  // namespace eimm
