#include "cachesim/harness.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/thread_info.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

SegmentedPool dense_pool() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.02, 5);
  return testing::sample_pool(g, DiffusionModel::kIndependentCascade, 150,
                              77);
}

TEST(TracedSelection, SeedsMatchUntracedKernels) {
  const SegmentedPool pool = dense_pool();
  SelectionOptions options;
  options.k = 5;
  options.dynamic_balance = false;
  CounterArray counters(pool.num_vertices());
  const auto untraced = efficient_select(pool, counters, options);

  const auto traced =
      run_traced_selection(Engine::kEfficient, pool, 5, /*threads=*/2);
  EXPECT_EQ(traced.selection.seeds, untraced.seeds);
}

// LT sampling yields short sets: every one sits below the bitmap
// crossover, so the efficient kernel retires covered sets purely
// through its vertex→set index.
SegmentedPool lt_pool() {
  const DiffusionGraph g = make_workload_with_weights(
      "as-Skitter", DiffusionModel::kLinearThreshold, 0.02, 5);
  return testing::sample_pool(g, DiffusionModel::kLinearThreshold, 3000, 91,
                              bitmap_cutoff(g.num_vertices()));
}

TEST(TracedSelection, IndexPathSeedsMatchUntracedOnLtPool) {
  const SegmentedPool pool = lt_pool();
  const std::size_t cutoff = bitmap_cutoff(pool.num_vertices());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_LT(pool[i].size(), cutoff) << "set " << i;
  }
  SelectionOptions options;
  options.k = 10;
  options.dynamic_balance = false;
  CounterArray counters(pool.num_vertices());
  const auto untraced = efficient_select(pool, counters, options);
  ASSERT_EQ(untraced.seeds.size(), 10u);

  for (const int threads : {1, 3}) {
    const auto traced =
        run_traced_selection(Engine::kEfficient, pool, 10, threads);
    EXPECT_EQ(traced.selection.seeds, untraced.seeds) << threads;
    EXPECT_EQ(traced.selection.marginal_coverage, untraced.marginal_coverage)
        << threads;
    EXPECT_GT(traced.cache.accesses, 0u);
  }
}

/// Records every touched address (single-threaded use only).
struct RecordingMem {
  static constexpr bool kTracing = true;
  static inline std::vector<const void*> touched;
  static void touch(const void* addr, std::size_t /*bytes*/) noexcept {
    touched.push_back(addr);
  }
};

TEST(TracedSelection, TouchesFollowTheIndexWalk) {
  const SegmentedPool pool = lt_pool();
  ThreadCountScope scope(1);
  SelectionOptions options;
  options.k = 10;
  options.adaptive_update = false;  // every round walks the index
  CoverIndex cover;
  options.cover_scratch = &cover;
  CounterArray counters(pool.num_vertices());
  RecordingMem::touched.clear();
  const auto traced = efficient_select_t<RecordingMem>(pool, counters,
                                                       options);
  CounterArray fresh(pool.num_vertices());
  options.cover_scratch = nullptr;
  EXPECT_EQ(traced.seeds, efficient_select(pool, fresh, options).seeds);

  // Every id slot of the index was written during the build; the
  // decrement rounds then read back the runs of the picked seeds.
  const auto in = [](const void* p, const auto& buffer) {
    const auto* base = reinterpret_cast<const std::uint8_t*>(buffer.data());
    const auto* at = static_cast<const std::uint8_t*>(p);
    return at >= base &&
           at < base + buffer.size() * sizeof(*buffer.data());
  };
  std::uint64_t id_touches = 0;
  std::uint64_t offset_touches = 0;
  for (const void* p : RecordingMem::touched) {
    if (in(p, cover.sets)) ++id_touches;
    if (in(p, cover.offsets)) ++offset_touches;
  }
  ASSERT_FALSE(cover.sets.empty());
  EXPECT_GT(id_touches, cover.sets.size());
  EXPECT_GE(offset_touches, 2 * cover.sets.size());
}

TEST(TracedSelection, RipplesSeedsMatchToo) {
  const SegmentedPool pool = dense_pool();
  SelectionOptions options;
  options.k = 5;
  const auto untraced = ripples_select(pool, options);
  const auto traced =
      run_traced_selection(Engine::kRipples, pool, 5, /*threads=*/2);
  EXPECT_EQ(traced.selection.seeds, untraced.seeds);
}

TEST(TracedSelection, RecordsAccesses) {
  const SegmentedPool pool = dense_pool();
  const auto report =
      run_traced_selection(Engine::kEfficient, pool, 3, /*threads=*/1);
  EXPECT_GT(report.cache.accesses, 0u);
  EXPECT_GT(report.cache.l1_misses, 0u);
  EXPECT_LE(report.cache.l2_misses, report.cache.l1_misses);
  EXPECT_GE(report.traced_threads, 1u);
}

TEST(TracedSelection, RipplesTrafficGrowsWithThreads) {
  // The baseline's defining pathology (Challenge 1): every thread scans
  // every RRR set and binary-searches its vertex range, so the probe
  // traffic replicates with the thread count (the member walks stay
  // partitioned, so total access growth is sublinear but must be real).
  const SegmentedPool pool = dense_pool();
  const auto t1 = run_traced_selection(Engine::kRipples, pool, 3, 1);
  const auto t4 = run_traced_selection(Engine::kRipples, pool, 3, 4);
  EXPECT_GT(t4.cache.accesses, t1.cache.accesses);
  // The efficient kernel has no such replication: its t4/t1 access ratio
  // must be strictly smaller than the baseline's.
  const auto e1 = run_traced_selection(Engine::kEfficient, pool, 3, 1);
  const auto e4 = run_traced_selection(Engine::kEfficient, pool, 3, 4);
  const double ripples_growth = static_cast<double>(t4.cache.accesses) /
                                static_cast<double>(t1.cache.accesses);
  const double efficient_growth = static_cast<double>(e4.cache.accesses) /
                                  static_cast<double>(e1.cache.accesses);
  EXPECT_LT(efficient_growth, ripples_growth);
}

TEST(TracedSelection, EfficientTrafficRoughlyThreadInvariant) {
  const SegmentedPool pool = dense_pool();
  const auto t1 = run_traced_selection(Engine::kEfficient, pool, 3, 1);
  const auto t4 = run_traced_selection(Engine::kEfficient, pool, 3, 4);
  // RRR-set partitioning: total work is split, not replicated. Allow a
  // generous factor for the per-round survey/argmax overheads.
  EXPECT_LT(static_cast<double>(t4.cache.accesses),
            1.5 * static_cast<double>(t1.cache.accesses));
}

TEST(TracedSelection, EfficientBeatsRipplesOnMisses) {
  // The Table IV headline at test scale: with several threads, the
  // RRR-partitioned kernel must take far fewer L1+L2 misses.
  const SegmentedPool pool = dense_pool();
  const auto efficient =
      run_traced_selection(Engine::kEfficient, pool, 5, 4);
  const auto ripples = run_traced_selection(Engine::kRipples, pool, 5, 4);
  EXPECT_LT(efficient.cache.l1_plus_l2_misses(),
            ripples.cache.l1_plus_l2_misses());
}

TEST(TraceSession, NestedSessionsRejected) {
  TraceSession outer;
  EXPECT_THROW(TraceSession inner, CheckError);
}

TEST(TraceMem, TouchOutsideSessionIsNoop) {
  int x = 0;
  TraceMem::touch(&x, sizeof x);  // must not crash
  SUCCEED();
}

}  // namespace
}  // namespace eimm
