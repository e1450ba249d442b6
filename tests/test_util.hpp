// Shared helpers for the test suites: small deterministic graphs with
// diffusion weights, pool-building shortcuts, and environment scoping.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "diffusion/weights.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "rrr/generate.hpp"
#include "rrr/pool_view.hpp"
#include "serve/sketch_store.hpp"
#include "support/bits.hpp"
#include "support/macros.hpp"

namespace eimm::testing {

/// Scoped environment override that restores the previous value on
/// destruction. Pass nullptr to unset the variable for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* previous = std::getenv(name);
    if (previous != nullptr) previous_ = previous;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (previous_.has_value()) {
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

/// Builds a DiffusionGraph from explicit edges.
inline DiffusionGraph make_graph(std::vector<WeightedEdge> edges,
                                 VertexId n = 0) {
  return build_diffusion_graph(std::move(edges), n);
}

/// DiffusionGraph with paper weights for `model` already assigned.
inline DiffusionGraph make_weighted_graph(std::vector<WeightedEdge> edges,
                                          DiffusionModel model,
                                          std::uint64_t seed = 7,
                                          VertexId n = 0) {
  DiffusionGraph g = make_graph(std::move(edges), n);
  assign_paper_weights(g.reverse, model, seed);
  mirror_weights_to_forward(g.reverse, g.forward);
  return g;
}

/// Sets every weight on both orientations to `p` (deterministic graphs
/// where p=1 makes sampling exhaustive and p=0 trivial).
inline void set_uniform_probability(DiffusionGraph& g, float p) {
  g.reverse.ensure_weights(p);
  g.forward.ensure_weights(p);
  for (VertexId v = 0; v < g.reverse.num_vertices(); ++v) {
    for (float& w : g.reverse.mutable_weights(v)) w = p;
    for (float& w : g.forward.mutable_weights(v)) w = p;
  }
}

/// make_pool / sample_pool cutoff that keeps every set a sorted run.
inline constexpr std::size_t kRunsOnly =
    std::numeric_limits<std::size_t>::max();

/// Stores `members` (any order) as slot `i` of `pool`, in arena 0: a
/// bitmap run when it has at least `cutoff` members, a sorted run
/// otherwise — the two encodings the sharded sampler stages. Expects
/// pool.ensure_workers(1) to have run.
inline void store_set(SegmentedPool& pool, std::size_t i,
                      std::vector<VertexId> members, std::size_t cutoff) {
  ShardArena& arena = pool.arena(0);
  if (members.size() < cutoff) {
    std::sort(members.begin(), members.end());
    pool.set_run(i, arena.view(arena.append(members)));
    return;
  }
  const std::span<std::uint64_t> bits =
      arena.allocate_bitmap(words_for_bits(pool.num_vertices()));
  std::size_t count = 0;
  for (const VertexId v : members) {
    EIMM_CHECK(v < pool.num_vertices(), "vertex id out of bitmap range");
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    count += (bits[v >> 6] & bit) == 0 ? 1 : 0;
    bits[v >> 6] |= bit;
  }
  pool.set_bitmap(i, bits.data(), count);
}

/// Builds a pool from explicit vertex lists; sets of at least `cutoff`
/// members become bitmap runs.
inline SegmentedPool make_pool(VertexId n,
                               const std::vector<std::vector<VertexId>>& sets,
                               std::size_t cutoff = kRunsOnly) {
  SegmentedPool pool(n);
  pool.resize(sets.size());
  pool.ensure_workers(1);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    store_set(pool, i, sets[i], cutoff);
  }
  return pool;
}

/// Samples `count` RRR sets into a pool with the serial per-index
/// sampler (the reference the sharded sampler is checked against); sets
/// of at least `cutoff` members become bitmap runs.
inline SegmentedPool sample_pool(const DiffusionGraph& g,
                                 DiffusionModel model, std::size_t count,
                                 std::uint64_t seed,
                                 std::size_t cutoff = kRunsOnly) {
  SegmentedPool pool(g.num_vertices());
  pool.resize(count);
  pool.ensure_workers(1);
  SamplerScratch scratch(g.num_vertices());
  for (std::size_t i = 0; i < count; ++i) {
    store_set(pool, i, sample_rrr(g.reverse, model, seed, i, scratch),
              cutoff);
  }
  return pool;
}

/// Freezes `pool` into a SketchStore through the zero-copy build path.
inline SketchStore freeze(SegmentedPool pool, std::size_t k_max,
                          SketchStoreMeta meta = {}) {
  PoolBuild build;
  build.segments = std::move(pool);
  return SketchStore::from_build(std::move(build), k_max, std::move(meta));
}

/// Members of one set, ascending.
inline std::vector<VertexId> members_of(const RRRSetView& set) {
  std::vector<VertexId> out;
  out.reserve(set.size());
  set.for_each([&](VertexId v) { out.push_back(v); });
  return out;
}

}  // namespace eimm::testing
