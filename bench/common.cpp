#include "common.hpp"

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <optional>

#include "numa/topology.hpp"
#include "rrr/sharded.hpp"
#include "support/env.hpp"

namespace eimm::bench {

BenchConfig load_config() {
  BenchConfig config;
  config.scale = env_double("EIMM_SCALE", config.scale);
  config.max_threads = static_cast<int>(env_int("EIMM_THREADS", 0));
  if (config.max_threads <= 0) config.max_threads = omp_get_max_threads();
  config.reps = std::max(1, static_cast<int>(env_int("EIMM_BENCH_REPS", 1)));
  config.k = static_cast<std::size_t>(env_int("EIMM_K", 50));
  config.epsilon = env_double("EIMM_EPSILON", 0.5);
  config.max_rrr_sets = static_cast<std::uint64_t>(
      env_int("EIMM_MAX_RRR", static_cast<std::int64_t>(config.max_rrr_sets)));
  return config;
}

std::vector<int> thread_sweep(int max) {
  std::vector<int> sweep;
  for (int t = 1; t <= max; t *= 2) sweep.push_back(t);
  if (sweep.empty() || sweep.back() != max) sweep.push_back(max);
  return sweep;
}

double best_seconds(int reps, const std::function<double()>& fn) {
  double best = fn();
  for (int r = 1; r < reps; ++r) best = std::min(best, fn());
  return best;
}

ThroughputComparison compare_throughput(const std::string& label,
                                        std::uint64_t units, int reps,
                                        const std::function<double()>& baseline,
                                        const std::function<double()>& variant) {
  ThroughputComparison cmp;
  cmp.label = label;
  cmp.units = units;
  baseline();  // warmup: first touch of the workload pages / arena growth
  variant();
  cmp.baseline_seconds = best_seconds(reps, baseline);
  cmp.variant_seconds = best_seconds(reps, variant);
  return cmp;
}

ImmOptions imm_options(const BenchConfig& config, DiffusionModel model,
                       int threads) {
  ImmOptions opt;
  opt.k = config.k;
  opt.epsilon = config.epsilon;
  opt.model = model;
  opt.threads = threads;
  opt.rng_seed = config.rng_seed;
  opt.max_rrr_sets = config.max_rrr_sets;
  return opt;
}

DiffusionGraph load_workload(const BenchConfig& config,
                             const std::string& name, DiffusionModel model) {
  return make_workload_with_weights(name, model, config.scale,
                                    config.rng_seed);
}

SegmentedPool sample_fixed_pool(const DiffusionGraph& g, DiffusionModel model,
                                std::uint64_t rng_seed, std::size_t count) {
  ShardedConfig sampler_config;
  sampler_config.shards = 1;
  sampler_config.model = model;
  sampler_config.rng_seed = rng_seed;
  sampler_config.adaptive_representation = false;
  SegmentedPool pool(g.num_vertices());
  pool.resize(count);
  ShardedSampler(g.reverse, sampler_config).generate(pool, 0, count, nullptr);
  return pool;
}

std::string bench_json_path(const std::string& filename) {
  // An empty EIMM_BENCH_JSON_DIR means unset, not the filesystem root.
  const std::optional<std::string> dir = env_string("EIMM_BENCH_JSON_DIR");
  if (!dir.has_value() || dir->empty()) return "./" + filename;
  return *dir + "/" + filename;
}

void print_banner(const std::string& title, const BenchConfig& config) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "config: scale=%.2f threads<=%d reps=%d k=%zu eps=%.2f max_rrr=%llu\n",
      config.scale, config.max_threads, config.reps, config.k, config.epsilon,
      static_cast<unsigned long long>(config.max_rrr_sets));
  std::printf("host: %d hardware threads, %d NUMA node(s)\n\n",
              omp_get_num_procs(), numa_topology().num_nodes());
}

}  // namespace eimm::bench
