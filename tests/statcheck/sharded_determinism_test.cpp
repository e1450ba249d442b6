// Determinism regressions for the sharded sampling pipeline:
//   * same (workload, seed, epsilon, shards) → bit-identical
//     flatten() CSR image across repeated runs;
//   * shards == 1 (explicit or via EIMM_SHARDS=1) samples as one shard
//     and bit-matches the serial per-index reference sampler;
//   * every shard count produces the same image — shard count moves
//     placement and scheduling, never content;
//   * the selection-phase analogues: every EIMM_COUNTER_SHARDS value and
//     every EIMM_PIN mode produce the seed sequence of the flat,
//     unpinned reference path (counter_shards == 1, pin == none).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "rrr/sharded.hpp"
#include "runtime/affinity.hpp"
#include "statcheck.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

using statcheck::statcheck_imm_options;
using statcheck::statcheck_workload;

using testing::ScopedEnv;

void expect_flat_equal(const FlatPool& a, const FlatPool& b) {
  EXPECT_EQ(a.num_vertices, b.num_vertices);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);
}

TEST(ShardedDeterminism, RepeatedRunsProduceIdenticalCsrImages) {
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.shards = 3;
  const PoolBuild a = build_rrr_pool(g, opt, Engine::kEfficient);
  const PoolBuild b = build_rrr_pool(g, opt, Engine::kEfficient);
  EXPECT_EQ(a.shards_used, 3);
  EXPECT_EQ(b.shards_used, 3);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  expect_flat_equal(a.view().flatten(), b.view().flatten());
}

TEST(ShardedDeterminism, ShardsOneBitMatchesSerialReferenceSampler) {
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.shards = 1;
  // This test's whole point is the SCALAR per-index contract; pin fused
  // off so an EIMM_FUSED=1 environment (CI's fused statcheck leg) can't
  // reroute the build away from the reference being checked.
  opt.fused_sampling = FusedSampling::kOff;
  const PoolBuild build = build_rrr_pool(g, opt, Engine::kEfficient);
  EXPECT_EQ(build.shards_used, 1);

  // The serial reference: one RRR set per index from (seed, index).
  const SegmentedPool reference =
      testing::sample_pool(g, opt.model, build.size(), opt.rng_seed,
                           bitmap_cutoff(g.num_vertices()));
  expect_flat_equal(build.view().flatten(), RRRPoolView(reference).flatten());
}

TEST(ShardedDeterminism, EnvShardsOneBitMatchesExplicitShardsOne) {
  const DiffusionGraph g = statcheck_workload(
      "com-YouTube", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 4);

  opt.shards = 1;
  const PoolBuild explicit_one = build_rrr_pool(g, opt, Engine::kEfficient);

  ScopedEnv env("EIMM_SHARDS", "1");
  opt.shards = 0;  // defer to the environment
  const PoolBuild via_env = build_rrr_pool(g, opt, Engine::kEfficient);
  EXPECT_EQ(via_env.shards_used, 1);
  expect_flat_equal(explicit_one.view().flatten(), via_env.view().flatten());
}

TEST(ShardedDeterminism, EveryShardCountProducesTheSameImage) {
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kLinearThreshold, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kLinearThreshold, 6);
  opt.shards = 1;
  const PoolBuild reference = build_rrr_pool(g, opt, Engine::kEfficient);
  const FlatPool reference_flat = reference.view().flatten();

  for (const int shards : {2, 3, 5, 8}) {
    opt.shards = shards;
    const PoolBuild sharded = build_rrr_pool(g, opt, Engine::kEfficient);
    EXPECT_EQ(sharded.shards_used, shards);
    expect_flat_equal(reference_flat, sharded.view().flatten());
  }
}

TEST(ShardedDeterminism, ShardedSeedsIdenticalToUnsharded) {
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.shards = 1;
  const ImmResult unsharded = run_imm(g, opt, Engine::kEfficient);
  opt.shards = 4;
  const ImmResult sharded = run_imm(g, opt, Engine::kEfficient);
  EXPECT_EQ(sharded.shards_used, 4);
  EXPECT_EQ(unsharded.seeds, sharded.seeds);
  EXPECT_EQ(unsharded.num_rrr_sets, sharded.num_rrr_sets);
  EXPECT_DOUBLE_EQ(unsharded.coverage_fraction, sharded.coverage_fraction);
}

TEST(CounterShardDeterminism, EveryCounterShardCountProducesTheSameSeeds) {
  // The selection-phase analogue of the sampling sweep above: counter
  // sharding moves counter placement, never greedy outcomes. IC and LT,
  // with EIMM_COUNTER_SHARDS=1 (the flat array) as the reference.
  for (const DiffusionModel model :
       {DiffusionModel::kIndependentCascade,
        DiffusionModel::kLinearThreshold}) {
    const DiffusionGraph g = statcheck_workload(
        model == DiffusionModel::kIndependentCascade ? "com-Amazon"
                                                     : "com-DBLP",
        model, 0.03);
    auto opt = statcheck_imm_options(model, 6);
    opt.counter_shards = 1;
    const ImmResult reference = run_imm(g, opt, Engine::kEfficient);
    EXPECT_EQ(reference.counter_shards_used, 1);

    for (const int shards : {2, 3, 4, 8}) {
      opt.counter_shards = shards;
      const ImmResult sharded = run_imm(g, opt, Engine::kEfficient);
      EXPECT_EQ(sharded.counter_shards_used, shards);
      EXPECT_EQ(sharded.seeds, reference.seeds)
          << to_string(model) << " shards=" << shards;
      EXPECT_DOUBLE_EQ(sharded.coverage_fraction,
                       reference.coverage_fraction)
          << to_string(model) << " shards=" << shards;
    }
  }
}

TEST(CounterShardDeterminism, EnvCounterShardsMatchesExplicit) {
  const DiffusionGraph g = statcheck_workload(
      "com-YouTube", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 4);
  opt.counter_shards = 3;
  const ImmResult explicit_three = run_imm(g, opt, Engine::kEfficient);

  ScopedEnv env("EIMM_COUNTER_SHARDS", "3");
  opt.counter_shards = 0;  // defer to the environment
  const ImmResult via_env = run_imm(g, opt, Engine::kEfficient);
  EXPECT_EQ(via_env.counter_shards_used, 3);
  EXPECT_EQ(via_env.seeds, explicit_three.seeds);
}

TEST(PinModeDeterminism, EveryPinModeProducesTheSameSeeds) {
  // EIMM_PIN moves threads, never results: sweep every mode (compact and
  // spread stay active even on single-node hosts) against the unpinned
  // reference, with counter sharding on so the pinned path drives the
  // sharded layout's home-replica selection.
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.counter_shards = 2;

  set_pin_mode(PinMode::kNone);
  const ImmResult reference = run_imm(g, opt, Engine::kEfficient);
  for (const PinMode pin :
       {PinMode::kAuto, PinMode::kCompact, PinMode::kSpread}) {
    set_pin_mode(pin);
    const ImmResult pinned = run_imm(g, opt, Engine::kEfficient);
    EXPECT_EQ(pinned.seeds, reference.seeds)
        << "pin=" << to_string(pin);
    EXPECT_DOUBLE_EQ(pinned.coverage_fraction, reference.coverage_fraction)
        << "pin=" << to_string(pin);
  }
  reset_pin_mode();
}

TEST(ShardedDeterminism, ExplicitShardsOverrideEnvironment) {
  ScopedEnv env("EIMM_SHARDS", "7");
  EXPECT_EQ(resolve_shards(0), 7);
  EXPECT_EQ(resolve_shards(2), 2);
}

TEST(ShardedDeterminism, UnsetEnvironmentFallsBackToTopology) {
  // resolve_shards(0) with no env must report the detected domain count
  // (1 on non-NUMA hosts — the graceful single-domain fallback).
  const char* previous = std::getenv("EIMM_SHARDS");
  if (previous == nullptr) {
    EXPECT_EQ(resolve_shards(0), numa_topology().num_nodes());
  }
  EXPECT_GE(resolve_shards(0), 1);
}

}  // namespace
}  // namespace eimm
