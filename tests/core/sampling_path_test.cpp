// One sampling path: every build configuration — both engines, every
// shard count, the static split, sorted runs only, and the compressed
// backing — stages through the sharded sampler, and its pool must equal
// the serial per-index reference set for set. Under adaptive
// representation exactly the reference sets of at least
// bitmap_cutoff(|V|) members are bitmap runs; without it, none are.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/imm.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

struct BuildCase {
  std::string name;
  Engine engine = Engine::kEfficient;
  int shards = 1;
  bool adaptive = true;
  bool dynamic_balance = true;
  PoolCompression compress = PoolCompression::kNone;
};

std::vector<BuildCase> build_cases() {
  std::vector<BuildCase> cases;
  cases.push_back({"default", Engine::kEfficient, 1});
  BuildCase no_adaptive{"no_adaptive", Engine::kEfficient, 1};
  no_adaptive.adaptive = false;
  cases.push_back(no_adaptive);
  BuildCase static_split{"static_split", Engine::kEfficient, 1};
  static_split.dynamic_balance = false;
  cases.push_back(static_split);
  cases.push_back({"shards2", Engine::kEfficient, 2});
  cases.push_back({"shards3", Engine::kEfficient, 3});
  BuildCase varint{"varint", Engine::kEfficient, 2};
  varint.compress = PoolCompression::kVarint;
  cases.push_back(varint);
  cases.push_back({"ripples", Engine::kRipples, 1});
  return cases;
}

class SamplingPath : public ::testing::TestWithParam<DiffusionModel> {};

TEST_P(SamplingPath, EveryConfigurationMatchesTheSerialReference) {
  const DiffusionModel model = GetParam();
  const DiffusionGraph g = make_workload_with_weights(
      model == DiffusionModel::kIndependentCascade ? "com-Amazon"
                                                   : "com-DBLP",
      model, 0.01);
  const std::size_t cutoff = bitmap_cutoff(g.num_vertices());

  for (const BuildCase& c : build_cases()) {
    ImmOptions opt;
    opt.k = 5;
    opt.model = model;
    opt.rng_seed = 4242;
    opt.max_rrr_sets = 8192;
    opt.shards = c.shards;
    opt.adaptive_representation = c.adaptive;
    opt.dynamic_balance = c.dynamic_balance;
    opt.pool_compress = c.compress;
    // Fused IC sets are only statistically equal to the reference.
    opt.fused_sampling = FusedSampling::kOff;
    const PoolBuild build = build_rrr_pool(g, opt, c.engine);
    ASSERT_GT(build.size(), 0u) << c.name;

    const SegmentedPool reference =
        testing::sample_pool(g, model, build.size(), opt.rng_seed);
    const FlatPool actual = build.view().flatten();
    const FlatPool expected = RRRPoolView(reference).flatten();
    EXPECT_EQ(actual.offsets, expected.offsets) << c.name;
    EXPECT_EQ(actual.vertices, expected.vertices) << c.name;

    if (c.compress != PoolCompression::kNone) continue;
    const bool bitmaps = c.engine == Engine::kEfficient && c.adaptive;
    std::size_t dense = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      dense += reference[i].size() >= cutoff ? 1 : 0;
    }
    if (model == DiffusionModel::kIndependentCascade) {
      ASSERT_GT(dense, 0u) << "IC workload produced no dense sets";
    }
    EXPECT_EQ(build.view().bitmap_count(), bitmaps ? dense : 0u) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, SamplingPath,
    ::testing::Values(DiffusionModel::kIndependentCascade,
                      DiffusionModel::kLinearThreshold),
    [](const ::testing::TestParamInfo<DiffusionModel>& info) {
      return info.param == DiffusionModel::kIndependentCascade
                 ? std::string("IC")
                 : std::string("LT");
    });

}  // namespace
}  // namespace eimm
