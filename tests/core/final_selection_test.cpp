// run_imm's final selection on the efficient engine: the last martingale
// probe is returned as is when Set Theta appends no sets after it, and a
// topped-up pool is selected over again through the build's bound
// workspace. Either way the result must equal a fresh, workspace-less
// selection over the same pool — seeds, marginals and covered sets.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/imm.hpp"
#include "seedselect/engine.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

struct Variant {
  const char* name;
  int shards;
  PoolCompression compress;
  FusedSampling fused;
};

constexpr Variant kVariants[] = {
    {"default", 1, PoolCompression::kNone, FusedSampling::kOff},
    {"shards2", 2, PoolCompression::kNone, FusedSampling::kOff},
    {"varint", 1, PoolCompression::kVarint, FusedSampling::kOff},
    {"fused", 1, PoolCompression::kNone, FusedSampling::kOn},
};

ImmOptions options_for(DiffusionModel model, std::size_t k,
                       const Variant& variant) {
  ImmOptions options;
  options.k = k;
  options.model = model;
  options.max_rrr_sets = 1 << 16;
  options.shards = variant.shards;
  options.counter_shards = 1;
  options.pool_compress = variant.compress;
  options.fused_sampling = variant.fused;
  return options;
}

/// A workspace-less selection over the pool run_imm would select over,
/// with the counters built by the kernel rather than loaded from the
/// fused base.
SelectionResult fresh_selection(const DiffusionGraph& graph,
                                const ImmOptions& options) {
  const PoolBuild build = build_rrr_pool(graph, options, Engine::kEfficient);
  SelectionEngineConfig config;
  config.counter_shards = 1;
  config.pin = PinMode::kNone;
  SelectionOptions sopt;
  sopt.k = options.k;
  return SelectionEngine(config).select(SelectionKernel::kEfficient,
                                        build.view(), sopt);
}

void expect_matches_fresh(const DiffusionGraph& graph,
                          const ImmOptions& options, const std::string& what) {
  const ImmResult result = run_imm(graph, options, Engine::kEfficient);
  const SelectionResult fresh = fresh_selection(graph, options);
  ASSERT_FALSE(result.seeds.empty()) << what;
  EXPECT_EQ(result.seeds, fresh.seeds) << what;
  EXPECT_EQ(result.marginal_coverage, fresh.marginal_coverage) << what;
  EXPECT_EQ(result.covered_sets, fresh.covered_sets) << what;
  EXPECT_EQ(result.num_rrr_sets, fresh.total_sets) << what;
  // Reuse happens exactly when the last probe saw the whole pool.
  ASSERT_FALSE(result.iterations.empty()) << what;
  EXPECT_EQ(result.final_selection_reused,
            result.iterations.back().theta == result.num_rrr_sets)
      << what;
  EXPECT_EQ(result.counter_layout_allocations, 1u) << what;
}

TEST(FinalSelection, MatchesAFreshSelectionAcrossModelsAndBackings) {
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const DiffusionGraph graph =
        make_workload_with_weights("com-Amazon", model, 0.05);
    for (const Variant& variant : kVariants) {
      expect_matches_fresh(graph, options_for(model, 10, variant),
                           std::string(to_string(model)) + "/" +
                               variant.name);
    }
  }
}

TEST(FinalSelection, ReusesTheLastProbeWhenThetaAddsNoSets) {
  // On this input Set Theta asks for fewer sets than the last probe drew.
  const DiffusionGraph graph = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.05);
  const ImmOptions options = options_for(DiffusionModel::kIndependentCascade,
                                         10, kVariants[0]);
  const ImmResult result = run_imm(graph, options, Engine::kEfficient);
  ASSERT_FALSE(result.iterations.empty());
  ASSERT_LE(result.theta, result.iterations.back().theta);
  EXPECT_TRUE(result.final_selection_reused);
  expect_matches_fresh(graph, options, "reused");

  // The Ripples baseline always selects again.
  EXPECT_FALSE(run_imm(graph, options, Engine::kRipples).final_selection_reused);
}

TEST(FinalSelection, SelectsAgainOverATopUpPool) {
  // Here θ_final tops the pool up past the last probe, so the final
  // selection runs over the larger pool and indexes only the new sets.
  const DiffusionGraph graph = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kLinearThreshold, 0.02);
  for (const Variant& variant : {kVariants[0], kVariants[1]}) {
    const ImmOptions options =
        options_for(DiffusionModel::kLinearThreshold, 6, variant);
    const ImmResult result = run_imm(graph, options, Engine::kEfficient);
    ASSERT_FALSE(result.iterations.empty());
    ASSERT_GT(result.theta, result.iterations.back().theta) << variant.name;
    ASSERT_GT(result.num_rrr_sets, result.iterations.back().theta)
        << variant.name;
    EXPECT_FALSE(result.final_selection_reused) << variant.name;
    expect_matches_fresh(graph, options, std::string("top-up/") + variant.name);
  }
}

TEST(FinalSelection, BuildLeavesItsWorkspaceBoundAndIndexedToTheLastProbe) {
  const DiffusionGraph graph = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kLinearThreshold, 0.02);
  const PoolBuild build = build_rrr_pool(
      graph, options_for(DiffusionModel::kLinearThreshold, 6, kVariants[0]),
      Engine::kEfficient);
  EXPECT_TRUE(build.workspace.bound());
  // The index covers what the last probe saw; the top-up is indexed by
  // the final selection, not by the build.
  EXPECT_EQ(build.workspace.cover_index().indexed,
            build.last_probe.total_sets);
  EXPECT_EQ(build.last_probe.total_sets, build.iterations.back().theta);
}

// Literal seed sequences of run_imm at a fixed seed, k = 8, scale 0.05,
// recorded before the pool storage was reduced to SegmentedPool. Both
// engines select the same seeds. They pin the selection across commits,
// so a change to the pool storage, the selection kernels or the sampler
// that moves a single seed fails here by name.
struct GoldenSeeds {
  const char* workload;
  DiffusionModel model;
  std::vector<VertexId> seeds;
};

TEST(FinalSelection, GoldenSeedsAtAFixedSeed) {
  const GoldenSeeds cases[] = {
      {"com-Amazon", DiffusionModel::kIndependentCascade,
       {651, 728, 521, 704, 752, 495, 568, 283}},
      {"com-Amazon", DiffusionModel::kLinearThreshold,
       {332, 784, 605, 742, 98, 636, 1032, 842}},
      {"as-Skitter", DiffusionModel::kIndependentCascade,
       {471, 631, 126, 1000, 677, 292, 75, 618}},
      {"as-Skitter", DiffusionModel::kLinearThreshold,
       {181, 196, 372, 121, 515, 983, 369, 397}},
  };
  for (const GoldenSeeds& c : cases) {
    const DiffusionGraph graph =
        make_workload_with_weights(c.workload, c.model, 0.05);
    ImmOptions options = options_for(c.model, 8, kVariants[0]);
    options.rng_seed = 20240924;
    for (const Engine engine : {Engine::kEfficient, Engine::kRipples}) {
      EXPECT_EQ(run_imm(graph, options, engine).seeds, c.seeds)
          << c.workload << "/" << to_string(c.model) << "/"
          << to_string(engine);
    }
  }
}

}  // namespace
}  // namespace eimm
