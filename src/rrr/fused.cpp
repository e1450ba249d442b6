#include "rrr/fused.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "runtime/rng_stream.hpp"
#include "support/env.hpp"
#include "support/macros.hpp"

namespace eimm {
namespace {

/// Candidate-lane count at or below which IC coin flips come from the
/// per-lane streams instead of one block mask. A mask costs ~8 uniform
/// draws in expectation regardless of how many lanes need it (see
/// bernoulli_mask), so it only pays once enough lanes are asking; below
/// the threshold per-lane draws match the scalar pipeline's RNG cost.
constexpr int kMaskFlipThreshold = 8;

}  // namespace

bool resolve_fused_sampling(FusedSampling requested) {
  switch (requested) {
    case FusedSampling::kOff:
      return false;
    case FusedSampling::kOn:
      return true;
    case FusedSampling::kAuto:
      break;
  }
  return env_bool("EIMM_FUSED", false);
}

std::string_view to_string(FusedSampling mode) noexcept {
  switch (mode) {
    case FusedSampling::kAuto:
      return "auto";
    case FusedSampling::kOff:
      return "off";
    case FusedSampling::kOn:
      return "on";
  }
  return "auto";
}

std::uint64_t bernoulli_mask(Xoshiro256& rng, double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  const auto q =
      static_cast<std::uint64_t>(std::llround(p * 4294967296.0));  // p·2^32
  if (q == 0) return 0;
  if (q >= (std::uint64_t{1} << 32)) return ~std::uint64_t{0};
  // Bit-serial comparison U < q/2^32, all 64 lanes at once, MSB first:
  // draw k supplies bit k of every lane's uniform U. Where q's bit is 1,
  // a lane whose U-bit is 0 resolves to TRUE; where q's bit is 0, a lane
  // whose U-bit is 1 resolves to FALSE; equal bits stay undecided. Each
  // draw halves the undecided set in expectation, so a full-width mask
  // costs ~log2(64)+2 ≈ 8 draws instead of one draw per lane — and when
  // q runs out of set bits the surviving ties compare equal, i.e. NOT
  // below q, so the loop exits early (p = 0.5 costs a single draw).
  std::uint64_t result = 0;
  std::uint64_t undecided = ~std::uint64_t{0};
  for (int k = 31; k >= 0; --k) {
    if ((q & ((std::uint64_t{1} << (k + 1)) - 1)) == 0) break;
    const std::uint64_t r = rng();
    if (((q >> k) & 1) != 0) {
      result |= undecided & ~r;
      undecided &= r;
    } else {
      undecided &= ~r;
    }
    if (undecided == 0) break;
  }
  return result;
}

namespace {

/// Seeds the window's lane streams, draws every root, and queues the
/// roots with their lane masks accumulated in `pending` — lanes sharing
/// a root coalesce before the first expansion. Lane l's first draw is
/// next_bounded(n) from rng_stream(seed, block*64+l) — bit-identical to
/// the scalar sampler's root pick for that slot.
void draw_roots(const CSRGraph& reverse, std::uint64_t base_seed,
                std::uint64_t block, unsigned lane_begin, unsigned lane_end,
                FusedScratch& scratch) {
  const VertexId n = reverse.num_vertices();
  for (unsigned l = lane_begin; l < lane_end; ++l) {
    scratch.lane_rng[l] =
        rng_lane_stream(base_seed, block, kFusedLanes, l);
    const auto root =
        static_cast<VertexId>(scratch.lane_rng[l].next_bounded(n));
    if (scratch.visited[root] == 0) scratch.touched.push_back(root);
    if (scratch.pending[root] == 0) scratch.queue.push_back(root);
    const std::uint64_t bit = std::uint64_t{1} << l;
    scratch.visited[root] |= bit;
    scratch.pending[root] |= bit;
  }
}

/// IC: label-correcting BFS over all lanes at once with mask
/// coalescing. Popping v consumes pending[v] — every lane that arrived
/// at v since it was queued — so one adjacency scan serves the whole
/// accumulated mask, and lanes converging on high-influence vertices
/// merge into dense masks that take the single-Bernoulli-mask fast
/// path. A lane expands from each vertex at most once (it leaves
/// pending[v] on expansion and visited[v] keeps it from re-entering),
/// so each (lane, edge) pair flips at most one coin: the scalar IC
/// live-edge semantics. Expansion ORDER differs from the scalar BFS —
/// that is exactly why IC equivalence is statistical, not bitwise.
void traverse_ic(const CSRGraph& reverse, Xoshiro256& mask_rng,
                 FusedScratch& scratch) {
  for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
    const VertexId u = scratch.queue[head];
    const std::uint64_t m = scratch.pending[u];
    scratch.pending[u] = 0;
    const auto neighbors = reverse.neighbors(u);
    const auto probs = reverse.weights(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VertexId w = neighbors[i];
      const std::uint64_t need = m & ~scratch.visited[w];
      if (need == 0) continue;
      const double p = probs[i];
      std::uint64_t fresh;
      if (std::popcount(need) <= kMaskFlipThreshold) {
        // Few candidate lanes: per-lane draws (scalar RNG cost).
        fresh = 0;
        for (std::uint64_t rest = need; rest != 0; rest &= rest - 1) {
          const unsigned l = static_cast<unsigned>(std::countr_zero(rest));
          if (scratch.lane_rng[l].next_bool(p)) fresh |= std::uint64_t{1} << l;
        }
      } else {
        // Dense candidates: one Bernoulli mask serves every lane. The
        // mask bits are iid and fresh per edge event, so lanes stay
        // mutually independent even though they share the draw.
        fresh = bernoulli_mask(mask_rng, p) & need;
      }
      if (fresh == 0) continue;
      if (scratch.visited[w] == 0) scratch.touched.push_back(w);
      if (scratch.pending[w] == 0) scratch.queue.push_back(w);
      scratch.visited[w] |= fresh;
      scratch.pending[w] |= fresh;
    }
  }
}

/// Shared front half of both entry points: validates, runs the IC
/// traversal, and leaves scratch.visited/touched describing the lane
/// sets (touched sorted ascending, so every emit order is sorted too).
void run_fused_traversal(const CSRGraph& reverse, DiffusionModel model,
                         std::uint64_t base_seed, std::uint64_t block,
                         unsigned lane_begin, unsigned lane_end,
                         FusedScratch& scratch) {
  EIMM_CHECK(model == DiffusionModel::kIndependentCascade,
             "fused sampling supports the IC model only");
  EIMM_CHECK(reverse.has_weights(), "reverse graph needs diffusion weights");
  EIMM_CHECK(reverse.num_vertices() > 0, "empty graph");
  EIMM_CHECK(lane_begin < lane_end && lane_end <= kFusedLanes,
             "invalid fused lane window");

  scratch.queue.clear();
  scratch.touched.clear();
  draw_roots(reverse, base_seed, block, lane_begin, lane_end, scratch);

  // The mask stream lives in its own split domain and is salted with
  // (block, lane_begin): two traversals over different lane windows of
  // the same block (a martingale round split) never share mask draws.
  Xoshiro256 mask_rng =
      rng_stream(rng_split(base_seed, rng_domain::kFusedMask),
                 block * kFusedLanes + lane_begin);
  traverse_ic(reverse, mask_rng, scratch);
  std::sort(scratch.touched.begin(), scratch.touched.end());
}

}  // namespace

FusedTraversalStats sample_rrr_fused(const CSRGraph& reverse,
                                     DiffusionModel model,
                                     std::uint64_t base_seed,
                                     std::uint64_t block, unsigned lane_begin,
                                     unsigned lane_end,
                                     FusedScratch& scratch) {
  run_fused_traversal(reverse, model, base_seed, block, lane_begin, lane_end,
                      scratch);
  for (unsigned l = lane_begin; l < lane_end; ++l) scratch.members[l].clear();

  // Emit: one pass over the sorted touched union scatters each visited
  // word into the per-lane member buffers (already sorted, since the
  // union is) and clears it, restoring the all-zero scratch invariant.
  FusedTraversalStats stats;
  stats.lanes = lane_end - lane_begin;
  stats.touched = scratch.touched.size();
  for (const VertexId v : scratch.touched) {
    std::uint64_t word = scratch.visited[v];
    scratch.visited[v] = 0;
    stats.members += static_cast<std::uint64_t>(std::popcount(word));
    for (; word != 0; word &= word - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(word));
      scratch.members[l].push_back(v);
    }
  }
  return stats;
}

FusedTraversalStats sample_rrr_fused_into(
    const CSRGraph& reverse, DiffusionModel model, std::uint64_t base_seed,
    std::uint64_t block, unsigned lane_begin, unsigned lane_end,
    FusedScratch& scratch, ShardArena& arena, ShardArena::Ref* refs_out) {
  run_fused_traversal(reverse, model, base_seed, block, lane_begin, lane_end,
                      scratch);

  FusedTraversalStats stats;
  stats.lanes = lane_end - lane_begin;
  stats.touched = scratch.touched.size();

  // Pass 1: per-lane sizes (counts live in registers/stack, no buffer
  // traffic), so each lane's run can be allocated exactly-sized.
  std::array<std::uint32_t, kFusedLanes> counts{};
  for (const VertexId v : scratch.touched) {
    std::uint64_t word = scratch.visited[v];
    stats.members += static_cast<std::uint64_t>(std::popcount(word));
    for (; word != 0; word &= word - 1) {
      ++counts[std::countr_zero(word)];
    }
  }
  std::array<VertexId*, kFusedLanes> dest{};
  for (unsigned l = lane_begin; l < lane_end; ++l) {
    std::span<VertexId> run;
    refs_out[l - lane_begin] = arena.allocate(counts[l], run);
    dest[l] = run.data();
  }

  // Pass 2: scatter each touched vertex into its lanes' runs (sorted,
  // since touched is) and clear the scratch words in the same sweep.
  for (const VertexId v : scratch.touched) {
    std::uint64_t word = scratch.visited[v];
    scratch.visited[v] = 0;
    for (; word != 0; word &= word - 1) {
      *dest[std::countr_zero(word)]++ = v;
    }
  }
  return stats;
}

}  // namespace eimm
