// SelectionWorkspace regression suite: the martingale probe loop must
// perform exactly ONE working counter-layout allocation per run, with
// reset+reload between probes — and a reused workspace must be
// indistinguishable from a fresh allocation (probe round N+1 sees fully
// reset counters, never round N's decrements).
#include <gtest/gtest.h>

#include <vector>

#include "core/imm.hpp"
#include "graph/generators.hpp"
#include "seedselect/engine.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

SegmentedPool pool_of(const DiffusionGraph& g, std::size_t count,
                      std::uint64_t seed) {
  return testing::sample_pool(g, DiffusionModel::kIndependentCascade, count,
                              seed, bitmap_cutoff(g.num_vertices()));
}

DiffusionGraph test_graph(std::uint64_t seed = 23) {
  return testing::make_weighted_graph(gen_erdos_renyi(300, 1800, seed),
                                      DiffusionModel::kIndependentCascade);
}

SelectionEngine engine_with(int counter_shards) {
  SelectionEngineConfig config;
  config.counter_shards = counter_shards;
  config.pin = PinMode::kNone;
  return SelectionEngine(config);
}

TEST(SelectionWorkspace, AllocatesOnceAcrossRepeatedSelections) {
  const DiffusionGraph g = test_graph();
  const SegmentedPool pool = pool_of(g, 250, 0xA11);
  SelectionOptions options;
  options.k = 5;

  for (const int shards : {1, 3}) {
    const SelectionEngine engine = engine_with(shards);
    SelectionWorkspace ws;
    const SelectionResult first =
        engine.select(SelectionKernel::kEfficient, pool, options, nullptr,
                      &ws);
    EXPECT_EQ(ws.counter_allocations(), 1u) << "shards=" << shards;
    EXPECT_EQ(ws.reuses(), 0u);
    const SelectionResult second =
        engine.select(SelectionKernel::kEfficient, pool, options, nullptr,
                      &ws);
    EXPECT_EQ(ws.counter_allocations(), 1u) << "shards=" << shards;
    EXPECT_EQ(ws.reuses(), 1u);
    EXPECT_EQ(first.seeds, second.seeds);
    EXPECT_EQ(first.marginal_coverage, second.marginal_coverage);
  }
}

TEST(SelectionWorkspace, ReusedCountersAreFullyResetBetweenRounds) {
  // Simulate probe rounds over a GROWING pool: the workspace selects
  // over pool A (mutating its counters down to the leftovers), then over
  // the larger pool B — and must match a fresh, workspace-less selection
  // over B exactly. Any residue from round A would shift counters and
  // change a seed or marginal.
  const DiffusionGraph g = test_graph(29);
  const SegmentedPool pool_a = pool_of(g, 120, 0xB0B);
  const SegmentedPool pool_b = pool_of(g, 400, 0xB0B);

  SelectionOptions options;
  options.k = 6;
  for (const int shards : {1, 2, 4}) {
    const SelectionEngine engine = engine_with(shards);
    SelectionWorkspace ws;
    (void)engine.select(SelectionKernel::kEfficient, pool_a, options,
                        nullptr, &ws);
    const SelectionResult reused = engine.select(
        SelectionKernel::kEfficient, pool_b, options, nullptr, &ws);
    const SelectionResult fresh =
        engine.select(SelectionKernel::kEfficient, pool_b, options);
    EXPECT_EQ(reused.seeds, fresh.seeds) << "shards=" << shards;
    EXPECT_EQ(reused.marginal_coverage, fresh.marginal_coverage)
        << "shards=" << shards;
    EXPECT_EQ(reused.covered_sets, fresh.covered_sets);
    EXPECT_EQ(ws.counter_allocations(), 1u) << "shards=" << shards;
  }
}

TEST(SelectionWorkspace, ReloadsFusedBaseCountersBetweenRounds) {
  // The kernel-fusion hand-off: base counters stand in for the initial
  // build, and the workspace must reload them (not accumulate on top of
  // the previous round's state) on every call.
  const DiffusionGraph g = test_graph(31);
  const SegmentedPool pool = pool_of(g, 200, 0xC0DE);
  CounterArray base(g.num_vertices());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].for_each([&](VertexId v) { base.increment(v); });
  }

  SelectionOptions options;
  options.k = 4;
  for (const int shards : {1, 3}) {
    const SelectionEngine engine = engine_with(shards);
    SelectionWorkspace ws;
    const SelectionResult first = engine.select(
        SelectionKernel::kEfficient, pool, options, &base, &ws);
    const SelectionResult again = engine.select(
        SelectionKernel::kEfficient, pool, options, &base, &ws);
    const SelectionResult reference =
        engine.select(SelectionKernel::kEfficient, pool, options, &base);
    EXPECT_EQ(first.seeds, reference.seeds) << "shards=" << shards;
    EXPECT_EQ(again.seeds, reference.seeds) << "shards=" << shards;
    EXPECT_EQ(ws.counter_allocations(), 1u);
    EXPECT_EQ(ws.reuses(), 1u);
  }
}

TEST(SelectionWorkspace, RipplesKernelSharesAliveScratch) {
  const DiffusionGraph g = test_graph(37);
  const SegmentedPool pool = pool_of(g, 150, 0xD1CE);
  SelectionOptions options;
  options.k = 4;
  const SelectionEngine engine = engine_with(1);
  SelectionWorkspace ws;
  const SelectionResult a = engine.select(SelectionKernel::kRipples, pool,
                                          options, nullptr, &ws);
  const SelectionResult b = engine.select(SelectionKernel::kRipples, pool,
                                          options, nullptr, &ws);
  const SelectionResult fresh =
      engine.select(SelectionKernel::kRipples, pool, options);
  EXPECT_EQ(a.seeds, fresh.seeds);
  EXPECT_EQ(b.seeds, fresh.seeds);
  // The ripples kernel keeps its thread-local counter layout internal;
  // the workspace only lends alive flags, so no layout is allocated.
  EXPECT_EQ(ws.counter_allocations(), 0u);
}

TEST(SelectionWorkspace, RunImmPerformsExactlyOneLayoutAllocation) {
  // The end-to-end acceptance check: probing rounds + the final
  // selection all share the PoolBuild workspace.
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.02);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 8192;
  for (const int shards : {1, 3}) {
    for (const int counter_shards : {1, 2}) {
      options.shards = shards;
      options.counter_shards = counter_shards;
      const ImmResult result = run_imm(g, options, Engine::kEfficient);
      EXPECT_EQ(result.counter_layout_allocations, 1u)
          << "shards=" << shards << " counter_shards=" << counter_shards;
      EXPECT_FALSE(result.seeds.empty());
    }
  }
}

TEST(SelectionWorkspace, BuildRrrPoolProbesReuseTheWorkspace) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.02);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 8192;
  const PoolBuild build = build_rrr_pool(g, options, Engine::kEfficient);
  EXPECT_EQ(build.workspace.counter_allocations(), 1u);
  ASSERT_GE(build.iterations.size(), 1u);
  // One probe selection per martingale iteration: all but the first
  // reuse the layout.
  EXPECT_EQ(build.workspace.reuses(), build.iterations.size() - 1);
}

}  // namespace
}  // namespace eimm
