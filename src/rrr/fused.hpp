// Fused 64-wide RRR sampling: one traversal produces 64 sets.
//
// The scalar kernels in rrr/generate.hpp pay one full BFS/walk per RRR
// set, re-reading every frontier vertex's adjacency once per set. This
// module packs 64 concurrent simulations ("lanes") into a single
// `uint64_t` visited word per vertex and propagates all of them with one
// bitwise-OR frontier pass, following the fusing technique of Göktürk &
// Kaya ("Fusing and Vectorization", PAPERS.md) and the sage exemplar
// (SNIPPETS.md snippet 1):
//
//   IC — label-correcting BFS with mask COALESCING: a per-vertex
//   `pending` word accumulates the lanes that arrived at the vertex
//   since it was last expanded, and the vertex sits in the work queue
//   while that word fills up. Popping v consumes the whole accumulated
//   mask m at once: for each in-edge (w -> v) with probability p, only
//   lanes in `m & ~visited[w]` may traverse it; their coin flips come
//   either from the per-lane RNG streams (few candidate lanes) or from
//   a single 64-bit Bernoulli(p) mask (many lanes — one mask replaces
//   up to 64 scalar draws). Newly reached lanes OR into visited[w] and
//   pending[w], re-queueing w only on a 0 -> nonzero pending
//   transition. Coalescing is what makes fusion pay: lanes flowing
//   toward the same high-influence vertices merge into dense masks, so
//   one adjacency scan (and often one Bernoulli mask) serves dozens of
//   lanes where the scalar kernel would re-walk the list per set. Each
//   lane still expands each vertex at most once and flips each edge at
//   most once — the scalar IC live-edge semantics, 64-wide.
//
//   LT is not fused: its sets are reverse random walks that share
//   almost no traversal work, and a fused walk measured slower than the
//   scalar kernel while producing the same sets. sample_rrr_fused
//   rejects LT, and the sharded sampler stages LT through the scalar
//   loop even when fused sampling is requested.
//
// RNG contract (runtime/rng_stream.hpp): lane `l` of traversal block `b`
// covers global RRR slot b*64+l and seeds from rng_stream(seed, b*64+l)
// — the SAME stream the scalar sampler would use for that slot, so fused
// roots match scalar. The block-level IC mask stream
// comes from an rng_split domain salted by (block, lane_begin): when a
// martingale round boundary splits a block into two traversals, the two
// lane windows draw from disjoint mask streams, so no randomness is ever
// reused. Consequently IC set contents depend on the traversal's lane
// window — deterministic for a fixed (seed, round schedule), but NOT
// bitwise-equal to the scalar path; equivalence is statistical and
// enforced by tests/statcheck/fused_determinism_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "rrr/pool_view.hpp"
#include "support/rng.hpp"

namespace eimm {

/// Lanes per fused traversal — the width of the visited word.
inline constexpr unsigned kFusedLanes = 64;

/// Fused-mode request, mirroring the PoolCompression tri-state idiom:
/// explicit on/off wins, kAuto resolves the EIMM_FUSED environment
/// variable (default off — fused IC output is statistically, not
/// bitwise, equivalent to the scalar pipeline).
enum class FusedSampling { kAuto, kOff, kOn };

/// Applies the kAuto -> EIMM_FUSED defaulting; returns the final answer.
[[nodiscard]] bool resolve_fused_sampling(FusedSampling requested);

[[nodiscard]] std::string_view to_string(FusedSampling mode) noexcept;

/// Per-worker reusable state for fused traversals. `visited` and
/// `pending` must be all-zero between traversals; the IC expansion
/// consumes every pending word it queues, and sample_rrr_fused clears
/// the visited words it touched during its emit pass (O(touched), not
/// O(|V|)), restoring the invariant without epoch stamps — a 64-bit
/// lane word has no spare room for an epoch, and the touched list
/// already names every dirty word.
struct FusedScratch {
  explicit FusedScratch(VertexId n) : visited(n, 0), pending(n, 0) {
    queue.reserve(256);
    touched.reserve(256);
  }

  std::vector<std::uint64_t> visited;  ///< lane bitset per vertex
  /// Lanes that reached the vertex but have not been expanded from it
  /// yet; the coalescing accumulator (IC only).
  std::vector<std::uint64_t> pending;
  /// Work queue with index cursor; a vertex re-enters only on a
  /// pending 0 -> nonzero transition, so entries consume whole masks.
  std::vector<VertexId> queue;
  std::vector<VertexId> touched;  ///< distinct vertices with visited != 0
  /// Per-lane member output, sorted ascending after a traversal.
  std::array<std::vector<VertexId>, kFusedLanes> members;
  std::array<Xoshiro256, kFusedLanes> lane_rng;
};

/// Diagnostics from one traversal (feeds the sampler.fused metrics).
struct FusedTraversalStats {
  unsigned lanes = 0;            ///< sets emitted (= lane window width)
  std::uint64_t touched = 0;     ///< distinct vertices any lane visited
  std::uint64_t members = 0;     ///< Σ set sizes across the window
};

/// Draws 64 iid Bernoulli(p) bits in ~8 uniform draws (expected) via a
/// bit-serial MSB-first comparison: quantize q = round(p·2^32), then let
/// draw k supply bit k of all 64 lanes' uniform variates and resolve
/// each lane's U < q/2^32 comparison the moment its prefix differs from
/// q's. Every draw halves the undecided lanes in expectation, so the
/// loop runs ~log2(64)+2 rounds regardless of p's precision. The mask
/// is EXACTLY Bernoulli(q/2^32) per bit; quantization error vs p is
/// < 2^-33 — far below anything the statcheck harness can see.
[[nodiscard]] std::uint64_t bernoulli_mask(Xoshiro256& rng, double p) noexcept;

/// Runs one fused traversal for lanes [lane_begin, lane_end) of traversal
/// block `block` (global slots block*64+lane). On return
/// scratch.members[l] holds lane l's sorted RRR set (root included) for
/// every lane in the window, and scratch.visited is all-zero again.
/// `reverse` must carry IC diffusion weights; lane_begin < lane_end <=
/// 64. Throws CheckError for any model other than IC.
FusedTraversalStats sample_rrr_fused(const CSRGraph& reverse,
                                     DiffusionModel model,
                                     std::uint64_t base_seed,
                                     std::uint64_t block, unsigned lane_begin,
                                     unsigned lane_end, FusedScratch& scratch);

/// The staging-path variant: identical traversal, but each lane's sorted
/// members are scattered STRAIGHT into runs allocated from `arena` (no
/// intermediate per-lane buffer, one write per member). refs_out must
/// have room for lane_end - lane_begin entries; refs_out[l - lane_begin]
/// receives lane l's arena run. scratch.members is left untouched.
FusedTraversalStats sample_rrr_fused_into(
    const CSRGraph& reverse, DiffusionModel model, std::uint64_t base_seed,
    std::uint64_t block, unsigned lane_begin, unsigned lane_end,
    FusedScratch& scratch, ShardArena& arena, ShardArena::Ref* refs_out);

}  // namespace eimm
