// NUMA-sharded RRR sampling (§IV-B): the one way a build fills its pool.
//
// The paper's Table II shows that WHERE the sampling phase's working set
// lives dominates Generate_RRRsets runtime on multi-socket hosts. This
// layer partitions one generation round into per-NUMA-domain shards:
//
//   1. ShardPlan splits the global RRR index range [begin, end) into
//      contiguous shard slices (runtime/partition) and assigns each shard
//      a NUMA domain plus a contiguous group of workers.
//   2. Each worker samples its shard's slots — through a per-shard
//      stealing JobPool (runtime/work_queue) under dynamic balancing, so
//      a thread never migrates its working set across domains, or as
//      one contiguous block of the shard under the static split — and
//      stages every set in its own ShardArena (rrr/pool_view.hpp), whose
//      pages are mbind'd kLocal (numa/alloc): first touch by the
//      sampling worker places them on its own domain.
//   3. The staged sets ARE the pool: each SegmentedPool slot entry points
//      straight into the arena pages, and selection consumes them in
//      place through RRRPoolView. With adaptive representation on, a set
//      of at least bitmap_cutoff(|V|) members is staged as a bitmap run
//      and a smaller one as a sorted run (§IV-C); off, every set is a
//      sorted run. Fused staging always writes sorted runs.
//
// A one-shard plan is the single-domain case: one JobPool (or one static
// split) over the whole round, the same schedule a plain parallel loop
// would use. The Ripples baseline is the one-shard, static-split,
// no-bitmap configuration of this sampler.
//
// Determinism: slot i's content depends only on (rng_seed, i) — one
// per-index stream per slot — so every shard count, worker count,
// schedule, and split yields bit-identical pool content (tests/statcheck
// enforces this). On single-node hosts the kLocal policy falls back to
// first-touch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "numa/alloc.hpp"
#include "numa/topology.hpp"
#include "rrr/pool_view.hpp"
#include "runtime/atomic_counters.hpp"

namespace eimm {

/// Resolves a shard-count request: explicit positive values win, then the
/// EIMM_SHARDS environment variable, then the detected NUMA domain count
/// (1 on non-NUMA hosts — the single-domain fallback). Always >= 1.
int resolve_shards(int requested);

/// How one generation round is cut into shards and who serves each shard.
struct ShardPlan {
  struct Shard {
    std::uint64_t begin = 0;  ///< global RRR index range [begin, end)
    std::uint64_t end = 0;
    int domain = 0;           ///< preferred NUMA node (advisory: placement
                              ///< follows the workers' first touch)
    std::size_t first_worker = 0;  ///< workers [first, first+count) serve it
    std::size_t worker_count = 0;

    [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
    [[nodiscard]] bool empty() const noexcept { return begin >= end; }
  };

  std::vector<Shard> shards;
  std::size_t total_workers = 1;

  /// Splits [begin, end) into `num_shards` contiguous slices, round-robins
  /// domains from `topo`, and distributes `num_workers` over the shards.
  /// When workers outnumber shards every shard gets a contiguous worker
  /// group; otherwise each worker serves a contiguous run of shards
  /// one-by-one (shard count > thread count stays valid, just serialized).
  static ShardPlan make(std::uint64_t begin, std::uint64_t end,
                        int num_shards, std::size_t num_workers,
                        const NumaTopology& topo);

  /// Shard indices worker `w` serves, in ascending order.
  [[nodiscard]] std::vector<std::size_t> shards_for_worker(
      std::size_t w) const;
};

/// Pipeline diagnostics. The per-shard vectors describe the most recent
/// round; the byte counters describe the pool's arenas after it.
struct ShardStats {
  std::vector<std::uint64_t> sets_per_shard;
  std::vector<std::uint64_t> steals_per_shard;
  std::vector<int> shard_domains;
  /// Payload bytes staged into arenas, cumulative across rounds.
  std::uint64_t staged_bytes = 0;
  /// Arena chunk bytes currently mapped (plateaus under reset() reuse).
  std::uint64_t mapped_bytes = 0;
  int numa_domains = 1;  ///< detected domains when the plan was made
};

struct ShardedConfig {
  /// Resolved shard count (>= 1); use resolve_shards() to apply the
  /// EIMM_SHARDS / topology defaulting.
  int shards = 1;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  std::uint64_t rng_seed = 0;
  std::size_t batch_size = 64;
  /// Stage sets of at least bitmap_cutoff(|V|) members as bitmap runs
  /// (true) or every set as a sorted run (false). Scalar staging only.
  bool adaptive_representation = true;
  /// Per-shard stealing job pools (true) or one contiguous block of the
  /// shard per worker (false, the static split).
  bool dynamic_balance = true;
  /// Fused 64-wide IC generation (rrr/fused.hpp): each traversal covers
  /// one 64-slot block and emits up to 64 sorted runs. Resolved already
  /// (use resolve_fused_sampling()); slot contents depend only on
  /// (rng_seed, block, lane window), so every shard count still yields
  /// identical pools — but contents differ from the scalar mode. LT
  /// ignores the flag: its fused sets would equal the scalar ones.
  bool fused = false;
};

/// One sharded generation pipeline over a fixed reverse graph. generate()
/// may be called repeatedly with growing ranges (the martingale rounds);
/// stats() describes the most recent round.
class ShardedSampler {
 public:
  ShardedSampler(const CSRGraph& reverse, ShardedConfig config);

  /// Samples global slots [begin, end) straight into `pool`'s arenas
  /// (`pool` already resized to at least `end`); slot entries point at
  /// the staged sets, which selection consumes in place via
  /// RRRPoolView. When `counters` is non-null every sampled vertex also
  /// increments its counter (kernel fusion, Algorithm 3).
  void generate(SegmentedPool& pool, std::uint64_t begin, std::uint64_t end,
                CounterArray* counters);

  [[nodiscard]] int num_shards() const noexcept { return config_.shards; }
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }

 private:
  const CSRGraph& reverse_;
  ShardedConfig config_;
  ShardStats stats_;
};

}  // namespace eimm
