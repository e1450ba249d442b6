// fused_sampling — scalar vs fused 64-wide RRR generation throughput of
// the sharded zero-copy pipeline (rrr/fused.hpp), across shard counts
// and both diffusion models.
//
// Each row samples the SAME fixed slot range [0, max_rrr) through
// ShardedSampler::generate(SegmentedPool&) twice — once with the scalar
// per-slot kernels, once with fused 64-lane traversals — via the shared
// compare_throughput rep/warmup harness, so "sets/sec" means the same
// work on both sides. LT is never fused (the sampler stages it through
// the scalar kernel either way), so its rows measure scalar against
// itself and read ~1.0x. Fused IC output is statistically (not bitwise)
// equivalent to scalar, so instead of the bit-match flag the sharded
// bench carries, every model gets a Monte-Carlo spread-ratio check in
// the style of tests/statcheck: full scalar and fused IMM runs, forward
// spread estimation over both seed sets, fatal when the fused seeds'
// spread falls below (1 - tolerance) x scalar. Emits a human table plus
// machine-readable BENCH_fused_sampling.json via io/json_log.
//
// Extra knobs on top of the common EIMM_* set:
//   EIMM_FUSED_WORKLOAD   workload to sample (default com-YouTube — its
//                         supercritical IC weights keep lane occupancy
//                         high, the regime fusion targets)
//   EIMM_SHARDS_MAX       largest shard count in the sweep (default
//                         max(4, detected NUMA domains))
//   EIMM_FUSED_TOLERANCE  fractional spread-ratio tolerance (default
//                         0.05, matching the statcheck suite)
//   EIMM_SPREAD_SAMPLES   Monte-Carlo samples per spread estimate
//                         (default 1200)
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/imm.hpp"
#include "io/json_log.hpp"
#include "numa/topology.hpp"
#include "rrr/fused.hpp"
#include "rrr/sharded.hpp"
#include "simulate/spread.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace eimm;
using namespace eimm::bench;

namespace {

// Seconds spent sampling `num_sets` slots through a fresh zero-copy
// sampler. A fresh pool+sampler per run keeps reps independent: slot
// entries must never outlive the arenas they point into.
double sample_once(const DiffusionGraph& graph, const ShardedConfig& config,
                   std::uint64_t num_sets) {
  SegmentedPool pool(graph.num_vertices());
  pool.resize(num_sets);
  ShardedSampler sampler(graph.reverse, config);
  Timer timer;
  sampler.generate(pool, 0, num_sets, nullptr);
  return timer.seconds();
}

// Monte-Carlo spread of `seeds` under the statcheck-style fixed seeding.
double spread_of(const DiffusionGraph& graph, DiffusionModel model,
                 const std::vector<VertexId>& seeds, std::uint64_t rng_seed,
                 int num_samples) {
  SpreadOptions opt;
  opt.num_samples = num_samples;
  opt.rng_seed = rng_seed ^ 0xC0FFEEull;
  return estimate_spread(graph.forward, model, seeds, opt);
}

}  // namespace

int main() {
  const BenchConfig config = load_config();
  print_banner("fused_sampling — scalar vs fused 64-wide RRR generation",
               config);

  const std::string workload =
      env_string("EIMM_FUSED_WORKLOAD").value_or("com-YouTube");
  const int domains = numa_topology().num_nodes();
  const int max_shards =
      static_cast<int>(env_int("EIMM_SHARDS_MAX", std::max(4, domains)));
  const double tolerance = env_double("EIMM_FUSED_TOLERANCE", 0.05);
  const int spread_samples =
      static_cast<int>(env_int("EIMM_SPREAD_SAMPLES", 1200));

  std::vector<FusedBenchResult> rows;
  AsciiTable table({"Model", "Shards", "Scalar s", "Fused s", "Scalar/s",
                    "Fused/s", "Speedup", "SpreadRatio", "OK"});
  bool spread_ok = true;

  for (const DiffusionModel model :
       {DiffusionModel::kIndependentCascade, DiffusionModel::kLinearThreshold}) {
    const char* model_name =
        model == DiffusionModel::kIndependentCascade ? "IC" : "LT";
    const DiffusionGraph graph = load_workload(config, workload, model);

    // Quality gate, once per model (fused pool content is invariant
    // under the shard count, so one comparison covers the whole sweep):
    // seeds from a full scalar run vs a full fused run, compared by
    // forward Monte-Carlo spread — the bit-match check's statistical
    // replacement.
    ImmOptions options = imm_options(config, model, config.max_threads);
    options.shards = max_shards;
    options.fused_sampling = FusedSampling::kOff;
    const ImmResult scalar_imm = run_imm(graph, options, Engine::kEfficient);
    options.fused_sampling = FusedSampling::kOn;
    const ImmResult fused_imm = run_imm(graph, options, Engine::kEfficient);
    const double scalar_spread = spread_of(graph, model, scalar_imm.seeds,
                                           config.rng_seed, spread_samples);
    const double fused_spread = spread_of(graph, model, fused_imm.seeds,
                                          config.rng_seed, spread_samples);
    const double spread_ratio =
        scalar_spread > 0.0 ? fused_spread / scalar_spread : 1.0;
    const bool within = spread_ratio >= 1.0 - tolerance;
    spread_ok = spread_ok && within;
    std::printf(
        "%s spread: scalar %.1f vs fused %.1f (ratio %.4f, tolerance %.2f)\n",
        model_name, scalar_spread, fused_spread, spread_ratio, tolerance);

    for (const int shards : thread_sweep(max_shards)) {
      ShardedConfig shard_config;
      shard_config.shards = shards;
      shard_config.model = model;
      shard_config.rng_seed = config.rng_seed;
      const std::uint64_t num_sets = config.max_rrr_sets;

      ShardedConfig scalar_config = shard_config;
      scalar_config.fused = false;
      ShardedConfig fused_config = shard_config;
      fused_config.fused = true;
      const ThroughputComparison cmp = compare_throughput(
          std::string(model_name) + "/shards=" + std::to_string(shards),
          num_sets, config.reps,
          [&] { return sample_once(graph, scalar_config, num_sets); },
          [&] { return sample_once(graph, fused_config, num_sets); });

      table.new_row()
          .add(model_name)
          .add(static_cast<std::uint64_t>(shards))
          .add(cmp.baseline_seconds, 3)
          .add(cmp.variant_seconds, 3)
          .add(cmp.baseline_per_second(), 0)
          .add(cmp.variant_per_second(), 0)
          .add(cmp.speedup(), 2)
          .add(spread_ratio, 4)
          .add(within ? "yes" : "NO");

      FusedBenchResult row;
      row.workload = workload;
      row.model = model_name;
      row.shards = shards;
      row.threads = config.max_threads;
      row.num_rrr_sets = num_sets;
      row.scalar_seconds = cmp.baseline_seconds;
      row.fused_seconds = cmp.variant_seconds;
      row.scalar_sets_per_second = cmp.baseline_per_second();
      row.fused_sets_per_second = cmp.variant_per_second();
      row.speedup = cmp.speedup();
      row.spread_ratio = spread_ratio;
      row.spread_within_tolerance = within;
      rows.push_back(row);
    }
  }

  std::printf("\n");
  table.set_title("Fused sampling sweep: " + workload + " (" +
                  std::to_string(domains) + " NUMA domain(s) detected)");
  table.print(std::cout);

  const std::string path = write_fused_bench_json_file(
      bench_json_path("BENCH_fused_sampling.json"), domains, rows);
  std::printf("\nresults: %s\n", path.c_str());

  if (!spread_ok) {
    std::fprintf(stderr,
                 "ERROR: fused seed spread fell below (1 - %.2f) x scalar\n",
                 tolerance);
    return 1;
  }
  return 0;
}
