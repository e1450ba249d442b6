// Runs either Find_Most_Influential_Set kernel under the cache model and
// reports the Table IV metrics.
#pragma once

#include "cachesim/cache.hpp"
#include "cachesim/memtrace.hpp"
#include "core/imm.hpp"
#include "rrr/pool_view.hpp"
#include "seedselect/select.hpp"

namespace eimm {

struct TracedSelectionReport {
  CacheStats cache;
  SelectionResult selection;
  std::size_t traced_threads = 0;
};

/// Replays the chosen kernel over `pool` — a SegmentedPool or a
/// CompressedPool, both convert implicitly — with `threads` OpenMP
/// threads, each with a private simulated L1/L2.
/// Deterministic given the pool and options (dynamic balancing is
/// disabled inside for a stable trace).
TracedSelectionReport run_traced_selection(Engine engine,
                                           const RRRPoolView& pool,
                                           std::size_t k, int threads,
                                           const CacheConfig& config = {});

}  // namespace eimm
