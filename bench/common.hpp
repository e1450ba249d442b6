// Shared configuration and helpers for the paper-reproduction benches.
//
// Every binary honours the same environment knobs so the whole suite can
// be scaled from "smoke test on a laptop" (defaults) toward paper-scale:
//   EIMM_SCALE          workload scale factor (default 0.3 — must match
//                       BenchConfig::scale; tests/bench/common_test
//                       enforces the agreement)
//   EIMM_THREADS        max threads for sweeps (default: all cores)
//   EIMM_BENCH_REPS     repetitions; best (min) time is reported (default 1)
//   EIMM_K              seed budget (default 50, as in the paper)
//   EIMM_EPSILON        accuracy (default 0.5, as in the paper)
//   EIMM_MAX_RRR        RRR-set cap per run (default 1M)
//   EIMM_BENCH_JSON_DIR directory for machine-readable BENCH_*.json
//                       results (default: current directory)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/imm.hpp"
#include "workloads/registry.hpp"

namespace eimm::bench {

struct BenchConfig {
  double scale = 0.3;
  int max_threads = 0;  // resolved to hardware at load time
  int reps = 1;
  std::size_t k = 50;
  double epsilon = 0.5;
  std::uint64_t rng_seed = 0xBE9C;
  std::uint64_t max_rrr_sets = 1u << 20;
};

/// Reads the EIMM_* environment into a config (resolving thread count).
BenchConfig load_config();

/// 1, 2, 4, ..., up to and including max (max appended if not a power
/// of two) — the sweep the paper's strong-scaling figures use.
std::vector<int> thread_sweep(int max);

/// Minimum over `reps` runs of fn() (each returning seconds).
double best_seconds(int reps, const std::function<double()>& fn);

/// One scalar-vs-variant throughput comparison (see compare_throughput):
/// best-of-reps seconds per side over the same `units` of work.
struct ThroughputComparison {
  std::string label;
  std::uint64_t units = 0;  ///< work items each run processes (e.g. RRR sets)
  double baseline_seconds = 0.0;
  double variant_seconds = 0.0;

  [[nodiscard]] double baseline_per_second() const {
    return baseline_seconds > 0.0
               ? static_cast<double>(units) / baseline_seconds
               : 0.0;
  }
  [[nodiscard]] double variant_per_second() const {
    return variant_seconds > 0.0 ? static_cast<double>(units) / variant_seconds
                                 : 0.0;
  }
  /// baseline_seconds / variant_seconds (> 1 means the variant is faster).
  [[nodiscard]] double speedup() const {
    return variant_seconds > 0.0 ? baseline_seconds / variant_seconds : 0.0;
  }
};

/// The rep/warmup loop every baseline-vs-variant bench was re-implementing:
/// runs each side once untimed (warmup — page in the workload, size the
/// arenas), then `reps` timed runs per side, keeping the best. Both
/// callbacks return the seconds of the phase under test and must process
/// the same `units` of work per run.
ThroughputComparison compare_throughput(const std::string& label,
                                        std::uint64_t units, int reps,
                                        const std::function<double()>& baseline,
                                        const std::function<double()>& variant);

/// ImmOptions preset from the config for one model/engine run.
ImmOptions imm_options(const BenchConfig& config, DiffusionModel model,
                       int threads);

/// Workload + weights at the configured scale.
DiffusionGraph load_workload(const BenchConfig& config,
                             const std::string& name, DiffusionModel model);

/// A fixed pool of `count` RRR sets, slots [0, count), sampled through a
/// one-shard sampler that stages every set as a sorted run — the
/// configuration whose slots equal the serial sample_rrr sets.
SegmentedPool sample_fixed_pool(const DiffusionGraph& g, DiffusionModel model,
                                std::uint64_t rng_seed, std::size_t count);

/// Prints the standard bench banner (binary name, config, host info).
void print_banner(const std::string& title, const BenchConfig& config);

/// Resolved path for a machine-readable result file:
/// $EIMM_BENCH_JSON_DIR/<filename>, defaulting to ./<filename>.
std::string bench_json_path(const std::string& filename);

}  // namespace eimm::bench
