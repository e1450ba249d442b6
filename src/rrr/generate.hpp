// Reverse-reachability sampling (the Generate_RRRsets kernel).
//
// IC: probabilistic BFS on the transpose — in-edge (u -> v in G) is
// "live" with probability p(u,v), sampled on first touch (Algorithm 3,
// lines 1-13).
// LT: reverse random walk — at each vertex pick exactly one in-neighbor
// with probability equal to its edge weight (or none with the leftover
// probability), matching the live-edge characterization of the Linear
// Threshold model; sets are therefore paths, small but numerous (§III-A).
//
// Determinism: the caller seeds one RNG stream per RRR-set index, so set
// i's content depends only on (base_seed, i) — never on the thread that
// generated it or the schedule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "support/macros.hpp"
#include "support/rng.hpp"

namespace eimm {

/// Epoch-stamped visited set: O(1) reset between RRR sets instead of an
/// O(|V|) clear — the structure the paper places NUMA-locally (§IV-B).
class VisitScratch {
 public:
  explicit VisitScratch(std::size_t n) : stamp_(n, 0) {}

  /// Starts a fresh logical bitmap (constant time amortized). When the
  /// 32-bit epoch wraps, every stamp written during the previous cycle
  /// could alias a future epoch as "visited", so the wrap does the one
  /// full O(|V|) clear per 2^32 rounds and restarts at epoch 1 (0 is
  /// reserved as the never-marked stamp value).
  void new_round() noexcept {
    if (++epoch_ == 0) {  // wrapped: do the rare full clear
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  [[nodiscard]] bool visited(VertexId v) const noexcept {
    return stamp_[v] == epoch_;
  }
  void mark(VertexId v) noexcept { stamp_[v] = epoch_; }
  [[nodiscard]] std::size_t size() const noexcept { return stamp_.size(); }
  /// Raw stamp array (size() entries): a vertex is visited when its stamp
  /// equals epoch(). The vector IC kernels gather from it directly.
  [[nodiscard]] std::uint32_t* stamps() noexcept { return stamp_.data(); }

  /// Current epoch; 0 only before the first new_round().
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  /// Test seam: jumps the epoch counter so the wraparound clear is
  /// reachable without 2^32 new_round() calls. Stale stamps written
  /// before the jump keep their values, exactly as if the epochs in
  /// between had been consumed by empty rounds.
  void set_epoch_for_test(std::uint32_t epoch) noexcept { epoch_ = epoch; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Per-thread reusable buffers for one sampler.
struct SamplerScratch {
  explicit SamplerScratch(std::size_t n) : visited(n) { frontier.reserve(256); }
  VisitScratch visited;
  std::vector<VertexId> frontier;  // BFS queue storage
};

/// Null instrumentation: compiled away entirely. A probe observes every
/// access (check or mark) to the visited structure together with the
/// vertex id — enough to count events, time regions, or replay the
/// access stream through a memory model (bench/table2).
struct NullProbe {
  static void on_visited_access(VertexId v) noexcept { EIMM_UNUSED(v); }
};

/// Samples one RRR set under the IC model. `reverse` must carry IC
/// probabilities on its (in-)edges. Returns the member vertices
/// (unsorted; root always included). Probe hooks bracket the
/// visited-bitmap accesses for the Table II instrumentation; Scratch may
/// be any type exposing `.visited` (new_round/visited/mark) and
/// `.frontier`, so alternative visited-structure placements can be
/// compared under identical sampling.
template <typename Probe = NullProbe, typename Scratch = SamplerScratch>
std::vector<VertexId> sample_rrr_ic(const CSRGraph& reverse, VertexId root,
                                    Xoshiro256& rng, Scratch& scratch);

/// Samples one RRR set under the LT model. `reverse` must carry
/// normalized LT weights (Σ_u w(u,v) ≤ 1 per v).
template <typename Probe = NullProbe, typename Scratch = SamplerScratch>
std::vector<VertexId> sample_rrr_lt(const CSRGraph& reverse, VertexId root,
                                    Xoshiro256& rng, Scratch& scratch);

/// Model dispatch with deterministic per-index stream: root is chosen
/// uniformly from |V| using the stream's first draw. IC runs the widest
/// vector tier of sample_rrr_ic the host supports (see detail::IcKernel);
/// every tier returns the scalar template's set, member for member, and
/// leaves `rng` where the scalar template would.
std::vector<VertexId> sample_rrr(const CSRGraph& reverse, DiffusionModel model,
                                 std::uint64_t base_seed, std::uint64_t index,
                                 SamplerScratch& scratch);

namespace detail {

/// ISA tiers of the IC kernel. The vector tiers test a block of
/// in-neighbours at once: they gather the block's visit stamps, compare
/// them with the epoch, and then walk only the unseen lanes in adjacency
/// order, drawing each coin exactly where the scalar loop does.
enum class IcKernel : std::uint8_t {
  kScalar,  // sample_rrr_ic<NullProbe>
  kAvx2,    // 8 in-neighbours per gather
  kAvx512,  // 16 in-neighbours per gather
};

[[nodiscard]] const char* to_string(IcKernel kernel) noexcept;

/// True when this build and the host CPU can run `kernel`. kScalar is
/// always supported; the vector tiers need an x86-64 build.
[[nodiscard]] bool ic_kernel_supported(IcKernel kernel) noexcept;

/// The tier sample_rrr uses for an IC graph of `num_vertices` vertices:
/// the widest supported tier, picked once per process, or kScalar when
/// vertex ids do not fit the gathers' signed 32-bit indices.
[[nodiscard]] IcKernel ic_kernel_for(std::uint64_t num_vertices) noexcept;

/// The vector tiers as plain entry points, for the kernel identity
/// tests. Preconditions: ic_kernel_supported() holds for the tier, and
/// reverse.num_vertices() <= INT32_MAX.
std::vector<VertexId> sample_rrr_ic_avx2(const CSRGraph& reverse,
                                         VertexId root, Xoshiro256& rng,
                                         SamplerScratch& scratch);
std::vector<VertexId> sample_rrr_ic_avx512(const CSRGraph& reverse,
                                           VertexId root, Xoshiro256& rng,
                                           SamplerScratch& scratch);

}  // namespace detail

// --- template definitions ---

template <typename Probe, typename Scratch>
std::vector<VertexId> sample_rrr_ic(const CSRGraph& reverse, VertexId root,
                                    Xoshiro256& rng, Scratch& scratch) {
  scratch.visited.new_round();
  scratch.frontier.clear();

  scratch.visited.mark(root);
  scratch.frontier.push_back(root);

  // BFS with an index cursor instead of pop_front: the frontier doubles
  // as the visit log, so it is also the returned set.
  for (std::size_t head = 0; head < scratch.frontier.size(); ++head) {
    const VertexId u = scratch.frontier[head];
    const auto neighbors = reverse.neighbors(u);
    const auto probs = reverse.weights(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VertexId w = neighbors[i];
      Probe::on_visited_access(w);
      const bool seen = scratch.visited.visited(w);
      if (!seen && rng.next_bool(probs[i])) {
        Probe::on_visited_access(w);
        scratch.visited.mark(w);
        scratch.frontier.push_back(w);
      }
    }
  }
  return std::vector<VertexId>(scratch.frontier.begin(),
                               scratch.frontier.end());
}

template <typename Probe, typename Scratch>
std::vector<VertexId> sample_rrr_lt(const CSRGraph& reverse, VertexId root,
                                    Xoshiro256& rng, Scratch& scratch) {
  scratch.visited.new_round();

  std::vector<VertexId> result;
  result.push_back(root);
  scratch.visited.mark(root);

  VertexId current = root;
  for (;;) {
    const auto neighbors = reverse.neighbors(current);
    const auto weights = reverse.weights(current);
    if (neighbors.empty()) break;
    // Pick in-neighbor i with probability weights[i]; the leftover
    // probability mass (1 - Σ w) selects "no activator".
    const double r = rng.next_double();
    double cumulative = 0.0;
    VertexId picked = kInvalidVertex;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      cumulative += weights[i];
      if (r < cumulative) {
        picked = neighbors[i];
        break;
      }
    }
    if (picked == kInvalidVertex) break;  // activated by no one
    Probe::on_visited_access(picked);
    const bool seen = scratch.visited.visited(picked);
    if (seen) break;  // walk closed a cycle
    Probe::on_visited_access(picked);
    scratch.visited.mark(picked);
    result.push_back(picked);
    current = picked;
  }
  return result;
}

}  // namespace eimm
