#include "rrr/generate.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define EIMM_IC_X86 1
#endif

#include "runtime/rng_stream.hpp"
#include "support/env.hpp"
#include "support/macros.hpp"

namespace eimm {
namespace detail {
namespace {

/// Gather indices are signed 32-bit lanes, so larger vertex ids would
/// read as negative offsets.
constexpr std::uint64_t kMaxGatherVertices =
    static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());

IcKernel widest_host_kernel() noexcept {
  if (ic_kernel_supported(IcKernel::kAvx512)) return IcKernel::kAvx512;
  if (ic_kernel_supported(IcKernel::kAvx2)) return IcKernel::kAvx2;
  return IcKernel::kScalar;
}

void check_vector_tier(IcKernel kernel, const CSRGraph& reverse) {
  EIMM_CHECK(ic_kernel_supported(kernel), "IC kernel tier not supported here");
  EIMM_CHECK(reverse.num_vertices() <= kMaxGatherVertices,
             "vertex ids exceed the gathers' signed 32-bit indices");
}

#ifdef EIMM_IC_X86

/// Makes frontier slots [tail, tail + appends) writable, so the kernels
/// can store every candidate and advance the tail only for live ones. A
/// traversal holds at most |V| members and writes only while some vertex
/// is unvisited, i.e. below index |V|: the buffer stays O(|V|).
inline VertexId* reserve_frontier(std::vector<VertexId>& frontier,
                                  std::size_t tail, std::size_t appends,
                                  std::size_t n) {
  const std::size_t need = std::min(tail + appends, n);
  if (EIMM_UNLIKELY(frontier.size() < need)) {
    frontier.resize(std::min(n, std::max(need, 2 * frontier.size())));
  }
  return frontier.data();
}

/// Draws the coins of one block's unseen lanes in adjacency order — the
/// scalar loop's order — and appends the live ones without a branch. A
/// lane is re-tested first: an earlier lane of the same block may have
/// marked the same vertex (duplicate in-edge), and the scalar loop would
/// see that mark and draw nothing.
[[gnu::always_inline]] inline std::size_t take_unseen(
    std::uint32_t unseen, const VertexId* neighbors, const float* probs,
    std::uint32_t* stamp, std::uint32_t epoch, Xoshiro256& rng,
    VertexId* frontier, std::size_t tail) {
  while (unseen != 0) {
    const int lane = __builtin_ctz(unseen);
    unseen &= unseen - 1;
    const VertexId w = neighbors[lane];
    const std::uint32_t old = stamp[w];
    if (old == epoch) continue;
    const bool live = rng.next_bool(probs[lane]);
    stamp[w] = live ? epoch : old;
    frontier[tail] = w;
    tail += live ? 1 : 0;
  }
  return tail;
}

// The two tiers differ only in how one block's unseen mask is computed.
// Each spells out the traversal, because GCC will not inline a
// target-specific mask helper into a shared untargeted template.
// Masked-off tail lanes gather nothing and keep the epoch, so they read
// as visited.

__attribute__((target("avx512f"))) std::vector<VertexId> walk_avx512(
    const CSRGraph& reverse, VertexId root, Xoshiro256& rng,
    SamplerScratch& scratch) {
  constexpr EdgeId kLanes = 16;
  const std::size_t n = reverse.num_vertices();
  const EdgeId* offsets = reverse.offsets().data();
  const VertexId* targets = reverse.targets().data();
  const float* probs = reverse.raw_weights().data();
  scratch.visited.new_round();
  const std::uint32_t epoch = scratch.visited.epoch();
  std::uint32_t* stamp = scratch.visited.stamps();
  const __m512i epochs = _mm512_set1_epi32(static_cast<int>(epoch));

  VertexId* frontier = reserve_frontier(scratch.frontier, 0, 1, n);
  stamp[root] = epoch;
  frontier[0] = root;
  std::size_t tail = 1;
  for (std::size_t head = 0; head < tail; ++head) {
    const VertexId u = frontier[head];
    const EdgeId end = offsets[u + 1];
    frontier = reserve_frontier(scratch.frontier, tail, end - offsets[u], n);
    for (EdgeId e = offsets[u]; e < end; e += kLanes) {
      const auto lanes = static_cast<__mmask16>(
          0xFFFFu >> (kLanes - std::min(kLanes, end - e)));
      const __m512i ids = _mm512_maskz_loadu_epi32(lanes, targets + e);
      const __m512i seen =
          _mm512_mask_i32gather_epi32(epochs, lanes, ids, stamp, 4);
      const std::uint32_t unseen = _mm512_cmpneq_epi32_mask(seen, epochs);
      tail = take_unseen(unseen, targets + e, probs + e, stamp, epoch, rng,
                         frontier, tail);
    }
  }
  return std::vector<VertexId>(frontier, frontier + tail);
}

__attribute__((target("avx2"))) std::vector<VertexId> walk_avx2(
    const CSRGraph& reverse, VertexId root, Xoshiro256& rng,
    SamplerScratch& scratch) {
  constexpr EdgeId kLanes = 8;
  const std::size_t n = reverse.num_vertices();
  const EdgeId* offsets = reverse.offsets().data();
  const VertexId* targets = reverse.targets().data();
  const float* probs = reverse.raw_weights().data();
  scratch.visited.new_round();
  const std::uint32_t epoch = scratch.visited.epoch();
  std::uint32_t* stamp = scratch.visited.stamps();
  const auto* stamp_lanes = reinterpret_cast<const int*>(stamp);
  const __m256i epochs = _mm256_set1_epi32(static_cast<int>(epoch));
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);

  VertexId* frontier = reserve_frontier(scratch.frontier, 0, 1, n);
  stamp[root] = epoch;
  frontier[0] = root;
  std::size_t tail = 1;
  for (std::size_t head = 0; head < tail; ++head) {
    const VertexId u = frontier[head];
    const EdgeId end = offsets[u + 1];
    frontier = reserve_frontier(scratch.frontier, tail, end - offsets[u], n);
    for (EdgeId e = offsets[u]; e < end; e += kLanes) {
      const __m256i lanes = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(std::min(kLanes, end - e))),
          lane_ids);
      const __m256i ids = _mm256_maskload_epi32(
          reinterpret_cast<const int*>(targets + e), lanes);
      const __m256i seen =
          _mm256_mask_i32gather_epi32(epochs, stamp_lanes, ids, lanes, 4);
      const auto unseen = static_cast<std::uint32_t>(
          ~_mm256_movemask_ps(
              _mm256_castsi256_ps(_mm256_cmpeq_epi32(seen, epochs))) &
          0xFF);
      tail = take_unseen(unseen, targets + e, probs + e, stamp, epoch, rng,
                         frontier, tail);
    }
  }
  return std::vector<VertexId>(frontier, frontier + tail);
}

#endif  // EIMM_IC_X86

/// Under EIMM_VERBOSE, names the IC tier of the process's first IC set.
void log_ic_kernel_once(IcKernel kernel) {
  static const bool verbose = env_bool("EIMM_VERBOSE", false);
  if (!verbose) return;
  static std::once_flag flag;
  std::call_once(flag, [kernel] {
    std::fprintf(stderr, "[eimm sampling] IC kernel: %s\n", to_string(kernel));
  });
}

}  // namespace

const char* to_string(IcKernel kernel) noexcept {
  switch (kernel) {
    case IcKernel::kScalar:
      return "scalar";
    case IcKernel::kAvx2:
      return "avx2";
    case IcKernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ic_kernel_supported(IcKernel kernel) noexcept {
  switch (kernel) {
    case IcKernel::kScalar:
      return true;
#ifdef EIMM_IC_X86
    case IcKernel::kAvx2:
      return __builtin_cpu_supports("avx2");
    case IcKernel::kAvx512:
      return __builtin_cpu_supports("avx512f");
#else
    case IcKernel::kAvx2:
    case IcKernel::kAvx512:
      return false;
#endif
  }
  return false;
}

IcKernel ic_kernel_for(std::uint64_t num_vertices) noexcept {
  static const IcKernel widest = widest_host_kernel();
  return num_vertices > kMaxGatherVertices ? IcKernel::kScalar : widest;
}

std::vector<VertexId> sample_rrr_ic_avx2(const CSRGraph& reverse,
                                         VertexId root, Xoshiro256& rng,
                                         SamplerScratch& scratch) {
  check_vector_tier(IcKernel::kAvx2, reverse);
#ifdef EIMM_IC_X86
  return walk_avx2(reverse, root, rng, scratch);
#else
  return sample_rrr_ic(reverse, root, rng, scratch);  // unreachable
#endif
}

std::vector<VertexId> sample_rrr_ic_avx512(const CSRGraph& reverse,
                                           VertexId root, Xoshiro256& rng,
                                           SamplerScratch& scratch) {
  check_vector_tier(IcKernel::kAvx512, reverse);
#ifdef EIMM_IC_X86
  return walk_avx512(reverse, root, rng, scratch);
#else
  return sample_rrr_ic(reverse, root, rng, scratch);  // unreachable
#endif
}

}  // namespace detail

namespace {

std::vector<VertexId> sample_ic(const CSRGraph& reverse, VertexId root,
                                Xoshiro256& rng, SamplerScratch& scratch) {
  const detail::IcKernel kernel =
      detail::ic_kernel_for(reverse.num_vertices());
  detail::log_ic_kernel_once(kernel);
  switch (kernel) {
    case detail::IcKernel::kAvx512:
      return detail::sample_rrr_ic_avx512(reverse, root, rng, scratch);
    case detail::IcKernel::kAvx2:
      return detail::sample_rrr_ic_avx2(reverse, root, rng, scratch);
    case detail::IcKernel::kScalar:
      break;
  }
  return sample_rrr_ic(reverse, root, rng, scratch);
}

}  // namespace

std::vector<VertexId> sample_rrr(const CSRGraph& reverse, DiffusionModel model,
                                 std::uint64_t base_seed, std::uint64_t index,
                                 SamplerScratch& scratch) {
  EIMM_CHECK(reverse.has_weights(), "reverse graph needs diffusion weights");
  EIMM_CHECK(reverse.num_vertices() > 0, "empty graph");
  // Per-index stream via the audited runtime/rng_stream seam —
  // bit-compatible with the historical Xoshiro256::for_stream seeding.
  Xoshiro256 rng = rng_stream(base_seed, index);
  const auto root =
      static_cast<VertexId>(rng.next_bounded(reverse.num_vertices()));
  switch (model) {
    case DiffusionModel::kIndependentCascade:
      return sample_ic(reverse, root, rng, scratch);
    case DiffusionModel::kLinearThreshold:
      return sample_rrr_lt(reverse, root, rng, scratch);
  }
  return {root};
}

}  // namespace eimm
