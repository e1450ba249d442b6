#include "rrr/sharded.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rrr/fused.hpp"
#include "rrr/generate.hpp"
#include "runtime/affinity.hpp"
#include "runtime/partition.hpp"
#include "runtime/work_queue.hpp"
#include "support/env.hpp"
#include "support/macros.hpp"

namespace eimm {

int resolve_shards(int requested) {
  if (requested > 0) return requested;
  const std::int64_t env = env_int("EIMM_SHARDS", 0);
  if (env > 0) {
    return static_cast<int>(
        std::min<std::int64_t>(env, std::numeric_limits<int>::max()));
  }
  return numa_topology().num_nodes();
}

ShardPlan ShardPlan::make(std::uint64_t begin, std::uint64_t end,
                          int num_shards, std::size_t num_workers,
                          const NumaTopology& topo) {
  EIMM_CHECK(end >= begin, "invalid shard range");
  const auto shards = static_cast<std::size_t>(std::max(1, num_shards));
  const std::size_t workers = std::max<std::size_t>(1, num_workers);

  ShardPlan plan;
  plan.total_workers = workers;
  plan.shards.resize(shards);
  const auto slices = split_ranges(static_cast<std::size_t>(end - begin),
                                   shards);
  const int domains = std::max(1, topo.num_nodes());
  for (std::size_t s = 0; s < shards; ++s) {
    Shard& shard = plan.shards[s];
    shard.begin = begin + slices[s].first;
    shard.end = begin + slices[s].second;
    shard.domain = topo.nodes.empty()
                       ? 0
                       : topo.nodes[s % static_cast<std::size_t>(domains)];
    if (workers >= shards) {
      const auto [w_lo, w_hi] = block_range(workers, shards, s);
      shard.first_worker = w_lo;
      shard.worker_count = w_hi - w_lo;
    } else {
      // More shards than workers: worker block_owner(...) serves this
      // shard alone (each worker walks a contiguous run of shards).
      shard.first_worker = block_owner(shards, workers, s);
      shard.worker_count = 1;
    }
  }
  return plan;
}

std::vector<std::size_t> ShardPlan::shards_for_worker(std::size_t w) const {
  std::vector<std::size_t> owned;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& shard = shards[s];
    if (w >= shard.first_worker && w < shard.first_worker + shard.worker_count) {
      owned.push_back(s);
    }
  }
  return owned;
}

namespace {

/// One generation round over jobs [job_begin, job_end): pins the team,
/// plans the jobs into shards, and runs job(scratch, arena, j) for every
/// job j on the worker that owns it, with one Scratch per worker. A job
/// is one slot, or one 64-slot block (fused); `unit` is the slots per
/// job, so a shard's slots in [begin, end) can be reported. Records the
/// round's statistics into `stats` and checks that exactly end - begin
/// runs were staged.
template <typename Scratch, typename Job>
void run_round(const CSRGraph& reverse, const ShardedConfig& config,
               SegmentedPool& pool, std::uint64_t begin, std::uint64_t end,
               std::uint64_t unit, std::size_t batch, const char* span_name,
               ShardStats& stats, Job&& job) {
  const std::uint64_t job_begin = begin / unit;
  const std::uint64_t job_end = (end + unit - 1) / unit;
  const NumaTopology& topo = numa_topology();

  // Pin the team before planning work onto it: ShardPlan hands shard s
  // to a contiguous worker group, and the compact pin plan maps
  // contiguous thread ids to one domain each — together they keep a
  // shard's JobPool, scratch, and kLocal arena pages on one domain
  // instead of relying on OMP_PROC_BIND. No-op on single-node hosts or
  // under EIMM_PIN=none.
  pin_openmp_team();

  const auto max_workers = static_cast<std::size_t>(omp_get_max_threads());
  ShardPlan plan =
      ShardPlan::make(job_begin, job_end, config.shards, max_workers, topo);
  std::vector<std::unique_ptr<JobPool>> jobs;
  // Arenas are worker-private (single writer each) and persist across
  // rounds: growing rounds keep appending into the same chunk set.
  pool.ensure_workers(max_workers);
  const auto staged_runs = [&] {
    std::uint64_t runs = 0;
    for (std::size_t w = 0; w < pool.num_workers(); ++w) {
      runs += pool.arena(w).runs();
    }
    return runs;
  };
  const std::uint64_t runs_before = staged_runs();
  const VertexId n = reverse.num_vertices();

  if (end > begin) {
#pragma omp parallel
    {
#pragma omp single
      {
        // The plan must describe the team that actually materialized:
        // OMP_DYNAMIC, thread limits, or an enclosing parallel region
        // can hand us fewer threads than omp_get_max_threads() promised,
        // and a shard assigned to an absent worker would never drain.
        const auto team = static_cast<std::size_t>(omp_get_num_threads());
        if (team != plan.total_workers) {
          plan = ShardPlan::make(job_begin, job_end, config.shards, team,
                                 topo);
        }
        // One job pool per shard: stealing is confined to the shard's
        // worker group, so the locality the plan establishes survives
        // imbalance.
        if (config.dynamic_balance) {
          jobs.reserve(plan.shards.size());
          for (const ShardPlan::Shard& shard : plan.shards) {
            jobs.push_back(std::make_unique<JobPool>(
                shard.size(), batch,
                std::max<std::size_t>(1, shard.worker_count)));
          }
        }
      }  // implicit barrier: every worker sees the final plan

      const auto wid = static_cast<std::size_t>(omp_get_thread_num());
      if (wid < plan.total_workers) {
        Scratch scratch(n);
        ShardArena& arena = pool.arena(wid);
        for (const std::size_t s : plan.shards_for_worker(wid)) {
          const ShardPlan::Shard& shard = plan.shards[s];
          const std::size_t local = wid - shard.first_worker;
          // One span per worker-shard region: the trace shows which
          // domain each worker drained and for how long.
          obs::TraceSpan span(span_name, "shard",
                              static_cast<std::int64_t>(s), "domain",
                              shard.domain, "worker",
                              static_cast<std::int64_t>(wid));
          if (config.dynamic_balance) {
            for (JobBatch b = jobs[s]->next(local); !b.empty();
                 b = jobs[s]->next(local)) {
              for (std::size_t j = b.begin; j < b.end; ++j) {
                job(scratch, arena, shard.begin + j);
              }
            }
          } else {
            const auto [lo, hi] = block_range(
                shard.size(), std::max<std::size_t>(1, shard.worker_count),
                local);
            for (std::size_t j = lo; j < hi; ++j) {
              job(scratch, arena, shard.begin + j);
            }
          }
        }
      }
    }
  }

  static const obs::Counter steal_counter =
      obs::counter("sampling.steals_total");
  static const obs::Counter staged_counter =
      obs::counter("sampling.staged_bytes_total");
  stats.numa_domains = topo.num_nodes();
  stats.sets_per_shard.clear();
  stats.shard_domains.clear();
  stats.steals_per_shard.assign(plan.shards.size(), 0);
  std::uint64_t round_steals = 0;
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    const ShardPlan::Shard& shard = plan.shards[s];
    // The slots this shard's jobs contribute to THIS round.
    const std::uint64_t lo = std::max(begin, shard.begin * unit);
    const std::uint64_t hi = std::min(end, shard.end * unit);
    stats.sets_per_shard.push_back(hi > lo ? hi - lo : 0);
    stats.shard_domains.push_back(shard.domain);
    if (s < jobs.size()) stats.steals_per_shard[s] = jobs[s]->steal_count();
    round_steals += stats.steals_per_shard[s];
  }
  steal_counter.add(round_steals);
  const std::uint64_t staged_before = stats.staged_bytes;
  stats.staged_bytes = pool.staged_bytes();
  stats.mapped_bytes = pool.mapped_bytes();
  if (stats.staged_bytes > staged_before) {
    staged_counter.add(stats.staged_bytes - staged_before);
  }
  // Every slot must have been staged exactly once; a scheduling bug here
  // would otherwise surface as silently-empty RRR sets far downstream.
  EIMM_CHECK(staged_runs() - runs_before == end - begin,
             "sharded generation lost RRR slots");
}

}  // namespace

ShardedSampler::ShardedSampler(const CSRGraph& reverse, ShardedConfig config)
    : reverse_(reverse), config_(std::move(config)) {
  EIMM_CHECK(config_.shards >= 1, "shard count must be >= 1");
  EIMM_CHECK(config_.batch_size > 0, "batch size must be positive");
}

void ShardedSampler::generate(SegmentedPool& pool, std::uint64_t begin,
                              std::uint64_t end, CounterArray* counters) {
  EIMM_CHECK(end >= begin, "invalid generation range");
  EIMM_CHECK(pool.size() >= end, "pool not resized for generation range");
  EIMM_CHECK(pool.num_vertices() == reverse_.num_vertices(),
             "segmented pool sized for a different graph");
  const VertexId n = reverse_.num_vertices();

  if (config_.fused && config_.model == DiffusionModel::kIndependentCascade) {
    static const obs::Counter traversals_counter =
        obs::counter("sampler.fused.traversals_total");
    static const obs::Counter fused_sets_counter =
        obs::counter("sampler.fused.sets_total");
    static const obs::Histogram sets_per_traversal =
        obs::histogram("sampler.fused.sets_per_traversal");
    // Average lanes per touched vertex: 64 means every lane shares every
    // vertex (maximal traversal reuse), 1 means the lanes never overlapped
    // and fusion only amortized bookkeeping.
    static const obs::Histogram lane_occupancy =
        obs::histogram("sampler.fused.lane_occupancy");
    // Jobs are 64-slot blocks: block b owns global slots [b*64, (b+1)*64)
    // and is one indivisible job, so shard boundaries never split a
    // traversal and the pool stays identical for every shard count. Only
    // the ROUND range can clip a block's lane window (martingale growth
    // is in slots).
    const auto job = [&](FusedScratch& scratch, ShardArena& arena,
                         std::uint64_t block) {
      const std::uint64_t first = block * kFusedLanes;
      const auto lane_lo =
          static_cast<unsigned>(std::max(begin, first) - first);
      const auto lane_hi = static_cast<unsigned>(
          std::min(end, first + kFusedLanes) - first);
      std::array<ShardArena::Ref, kFusedLanes> lane_refs;
      const FusedTraversalStats tstats = sample_rrr_fused_into(
          reverse_, config_.model, config_.rng_seed, block, lane_lo, lane_hi,
          scratch, arena, lane_refs.data());
      for (unsigned l = lane_lo; l < lane_hi; ++l) {
        const std::span<const VertexId> run = arena.view(lane_refs[l - lane_lo]);
        if (counters != nullptr) {
          for (const VertexId v : run) counters->increment(v);
        }
        pool.set_run(first + l, run);
      }
      traversals_counter.add();
      fused_sets_counter.add(tstats.lanes);
      sets_per_traversal.observe(tstats.lanes);
      if (tstats.touched > 0) {
        lane_occupancy.observe(tstats.members / tstats.touched);
      }
    };
    run_round<FusedScratch>(
        reverse_, config_, pool, begin, end, kFusedLanes,
        std::max<std::size_t>(1, config_.batch_size / kFusedLanes),
        "sampler.fused", stats_, job);
    return;
  }

  const std::size_t cutoff = config_.adaptive_representation
                                 ? bitmap_cutoff(n)
                                 : std::numeric_limits<std::size_t>::max();
  const std::size_t words = words_for_bits(n);
  const auto job = [&](SamplerScratch& scratch, ShardArena& arena,
                       std::uint64_t slot) {
    std::vector<VertexId> verts =
        sample_rrr(reverse_, config_.model, config_.rng_seed, slot, scratch);
    if (counters != nullptr) {
      for (const VertexId v : verts) counters->increment(v);
    }
    if (verts.size() >= cutoff) {
      const std::span<std::uint64_t> bits = arena.allocate_bitmap(words);
      for (const VertexId v : verts) {
        bits[v >> 6] |= std::uint64_t{1} << (v & 63);
      }
      pool.set_bitmap(slot, bits.data(), verts.size());
    } else {
      // Sorted: the run then IS the vector representation of the set,
      // so selection can binary-search it in place.
      std::sort(verts.begin(), verts.end());
      pool.set_run(slot, arena.view(arena.append(verts)));
    }
  };
  run_round<SamplerScratch>(reverse_, config_, pool, begin, end, 1,
                            config_.batch_size, "sampler.shard", stats_, job);
}

}  // namespace eimm
