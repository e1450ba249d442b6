// End-to-end runs of the full IMM workflow on the workload analogues,
// checking the pieces compose: workload -> weights -> sampling ->
// selection -> result, for both models and both engines.
#include <gtest/gtest.h>

#include "core/imm.hpp"
#include "simulate/heuristics.hpp"
#include "simulate/spread.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

struct EndToEndCase {
  std::string workload;
  DiffusionModel model;
};

// Without this gtest prints the case as raw bytes, and the bytes of the
// std::string hold a heap pointer, so the test names CTest discovers
// (which carry the "# GetParam() = ..." text) changed with every build.
void PrintTo(const EndToEndCase& c, std::ostream* os) {
  *os << c.workload << '/' << to_string(c.model);
}

class EndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEnd, ProducesUsefulSeeds) {
  const auto& param = GetParam();
  const DiffusionGraph g =
      make_workload_with_weights(param.workload, param.model, 0.02, 17);

  ImmOptions opt;
  opt.k = 8;
  opt.epsilon = 0.5;
  opt.model = param.model;
  opt.rng_seed = 99;
  opt.max_rrr_sets = 300'000;

  const ImmResult result = run_efficient_imm(g, opt);
  ASSERT_EQ(result.seeds.size(), 8u);

  // IMM seeds must clearly beat random seeds in actual simulated spread.
  SpreadOptions spread_opt;
  spread_opt.num_samples = 300;
  const double imm_spread =
      estimate_spread(g.forward, param.model, result.seeds, spread_opt);
  const auto random = random_seeds(g.num_vertices(), 8, 1234);
  const double random_spread =
      estimate_spread(g.forward, param.model, random, spread_opt);
  EXPECT_GE(imm_spread, random_spread);

  // And be at least competitive with the degree heuristic.
  const auto degree = top_degree_seeds(g.forward, 8);
  const double degree_spread =
      estimate_spread(g.forward, param.model, degree, spread_opt);
  EXPECT_GE(imm_spread, 0.8 * degree_spread);
}

std::string e2e_name(const ::testing::TestParamInfo<EndToEndCase>& info) {
  std::string name =
      info.param.workload + "_" + std::string(to_string(info.param.model));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndModels, EndToEnd,
    ::testing::Values(
        EndToEndCase{"com-Amazon", DiffusionModel::kIndependentCascade},
        EndToEndCase{"com-Amazon", DiffusionModel::kLinearThreshold},
        EndToEndCase{"com-YouTube", DiffusionModel::kIndependentCascade},
        EndToEndCase{"com-DBLP", DiffusionModel::kLinearThreshold},
        EndToEndCase{"as-Skitter", DiffusionModel::kIndependentCascade},
        EndToEndCase{"web-Google", DiffusionModel::kIndependentCascade},
        EndToEndCase{"web-Google", DiffusionModel::kLinearThreshold}),
    e2e_name);

TEST(EndToEndEngines, BothEnginesAgreeOnWorkloads) {
  for (const char* name : {"com-Amazon", "web-Google"}) {
    const DiffusionGraph g = make_workload_with_weights(
        name, DiffusionModel::kIndependentCascade, 0.02, 21);
    ImmOptions opt;
    opt.k = 6;
    opt.model = DiffusionModel::kIndependentCascade;
    opt.rng_seed = 5;
    opt.max_rrr_sets = 100'000;
    const auto efficient = run_efficient_imm(g, opt);
    const auto baseline = run_baseline_imm(g, opt);
    EXPECT_EQ(efficient.seeds, baseline.seeds) << name;
  }
}

TEST(EndToEndModels, LtUsesMoreButSmallerSets) {
  // §III-A: under LT the RRR sets are small but numerous; under IC they
  // are large but few. Verify the characterization holds on an analogue.
  const DiffusionGraph ic = make_workload_with_weights(
      "com-YouTube", DiffusionModel::kIndependentCascade, 0.02, 3);
  const DiffusionGraph lt = make_workload_with_weights(
      "com-YouTube", DiffusionModel::kLinearThreshold, 0.02, 3);

  ImmOptions opt;
  opt.k = 5;
  opt.rng_seed = 77;
  opt.max_rrr_sets = 500'000;

  opt.model = DiffusionModel::kIndependentCascade;
  const auto ic_result = run_efficient_imm(ic, opt);
  opt.model = DiffusionModel::kLinearThreshold;
  const auto lt_result = run_efficient_imm(lt, opt);

  const double ic_avg_size =
      static_cast<double>(ic_result.rrr_memory_bytes) /
      static_cast<double>(ic_result.num_rrr_sets);
  const double lt_avg_size =
      static_cast<double>(lt_result.rrr_memory_bytes) /
      static_cast<double>(lt_result.num_rrr_sets);
  EXPECT_GT(lt_result.num_rrr_sets, ic_result.num_rrr_sets);
  EXPECT_GT(ic_avg_size, lt_avg_size);
}

}  // namespace
}  // namespace eimm
