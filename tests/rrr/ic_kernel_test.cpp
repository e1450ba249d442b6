// Kernel identity: every vector tier of the IC sampler against the scalar
// sample_rrr_ic template. A tier must return the same members in the same
// order and leave the RNG stream exactly where the scalar loop leaves it,
// so the next draw matches too. Tiers this CPU lacks are skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <ostream>
#include <numeric>
#include <string>
#include <vector>

#include "diffusion/weights.hpp"
#include "graph/builder.hpp"
#include "rrr/generate.hpp"
#include "support/rng.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace detail {

// Names the tier in gtest output and in the CTest test names.
void PrintTo(IcKernel kernel, std::ostream* os) { *os << to_string(kernel); }

}  // namespace detail

namespace {

using detail::IcKernel;

// Block lengths around the 8- and 16-lane widths, and the zero case.
constexpr std::array<VertexId, 11> kLengths = {0,  1,  7,  8,  9, 15,
                                               16, 17, 31, 32, 33};

enum class Coin { kNever, kAlways, kUniform };

using TierFn = std::vector<VertexId> (*)(const CSRGraph&, VertexId,
                                         Xoshiro256&, SamplerScratch&);

TierFn tier_fn(IcKernel kernel) {
  return kernel == IcKernel::kAvx512 ? &detail::sample_rrr_ic_avx512
                                     : &detail::sample_rrr_ic_avx2;
}

/// Vertex v gets in-degree `length_of(v)`. Sources are distinct, unless
/// `repeats` is set: then every third in-edge repeats an earlier source
/// of the same vertex, so duplicates land both inside one lane block and
/// across blocks. Built with dedup off so the duplicates survive.
template <typename LengthOf>
DiffusionGraph in_degree_graph(VertexId n, LengthOf length_of, bool repeats,
                               Coin coin, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<WeightedEdge> edges;
  std::vector<VertexId> others(n - 1);
  for (VertexId v = 0; v < n; ++v) {
    std::iota(others.begin(), others.end(), VertexId{0});
    if (v < n - 1) others[v] = n - 1;  // every vertex but v
    std::vector<VertexId> sources;
    std::size_t fresh = 0;
    for (VertexId i = 0; i < length_of(v); ++i) {
      if (repeats && i % 3 == 2) {
        sources.push_back(sources[rng.next_bounded(sources.size())]);
        continue;
      }
      // Partial Fisher-Yates over `others`: distinct fresh sources.
      const auto pick = fresh + rng.next_bounded(others.size() - fresh);
      std::swap(others[fresh], others[pick]);
      sources.push_back(others[fresh++]);
    }
    for (const VertexId u : sources) edges.push_back({u, v, 1.0f});
  }
  BuildOptions options;
  options.dedup = false;
  DiffusionGraph g = build_diffusion_graph(std::move(edges), n, options);
  if (coin == Coin::kUniform) {
    assign_ic_weights_uniform(g.reverse, seed + 1);
  } else {
    g.reverse.ensure_weights();
    for (VertexId v = 0; v < n; ++v) {
      for (float& p : g.reverse.mutable_weights(v)) {
        p = coin == Coin::kAlways ? 1.0f : 0.0f;
      }
    }
  }
  return g;
}

class IcKernelIdentity : public ::testing::TestWithParam<IcKernel> {
 protected:
  void SetUp() override {
    if (!detail::ic_kernel_supported(GetParam())) {
      GTEST_SKIP() << "this CPU lacks the " << detail::to_string(GetParam())
                   << " instructions";
    }
  }

  /// Samples `sets` sets from every root in turn with both kernels and
  /// compares them. Each kernel keeps its own scratch across sets, as a
  /// sampling thread does.
  void expect_matches_scalar(const CSRGraph& reverse, std::size_t sets,
                             std::uint64_t seed,
                             std::size_t* largest = nullptr) {
    SamplerScratch scalar_scratch(reverse.num_vertices());
    SamplerScratch tier_scratch(reverse.num_vertices());
    expect_matches_scalar(reverse, sets, seed, scalar_scratch, tier_scratch,
                          largest);
  }

  void expect_matches_scalar(const CSRGraph& reverse, std::size_t sets,
                             std::uint64_t seed,
                             SamplerScratch& scalar_scratch,
                             SamplerScratch& tier_scratch,
                             std::size_t* largest = nullptr) {
    const TierFn tier = tier_fn(GetParam());
    for (std::size_t i = 0; i < sets; ++i) {
      Xoshiro256 scalar_rng = Xoshiro256::for_stream(seed, i);
      Xoshiro256 tier_rng = scalar_rng;
      const auto root = static_cast<VertexId>(i % reverse.num_vertices());
      const auto expected =
          sample_rrr_ic(reverse, root, scalar_rng, scalar_scratch);
      const auto got = tier(reverse, root, tier_rng, tier_scratch);
      ASSERT_EQ(got, expected) << "set " << i << ", root " << root;
      ASSERT_EQ(tier_rng(), scalar_rng()) << "RNG diverged after set " << i;
      if (largest != nullptr) *largest = std::max(*largest, got.size());
    }
  }
};

TEST_P(IcKernelIdentity, AdjacencyLengthsAroundLaneWidths) {
  for (const VertexId length : kLengths) {
    for (const Coin coin : {Coin::kNever, Coin::kAlways, Coin::kUniform}) {
      SCOPED_TRACE("in-degree " + std::to_string(length) + ", coin " +
                   std::to_string(static_cast<int>(coin)));
      const DiffusionGraph g = in_degree_graph(
          80, [length](VertexId) { return length; }, false, coin, length);
      expect_matches_scalar(g.reverse, 160, 0xA5 + length);
    }
  }
}

TEST_P(IcKernelIdentity, MixedLengthsInOneGraph) {
  const DiffusionGraph g = in_degree_graph(
      200, [](VertexId v) { return kLengths[v % kLengths.size()]; }, false,
      Coin::kUniform, 3);
  expect_matches_scalar(g.reverse, 400, 11);
}

TEST_P(IcKernelIdentity, DuplicateInEdges) {
  for (const Coin coin : {Coin::kAlways, Coin::kUniform}) {
    const DiffusionGraph g = in_degree_graph(
        120, [](VertexId v) { return kLengths[v % kLengths.size()]; }, true,
        coin, 5);
    // The graph really carries duplicate in-edges.
    const auto hub = g.reverse.neighbors(10);  // in-degree 33
    std::vector<VertexId> sorted(hub.begin(), hub.end());
    std::sort(sorted.begin(), sorted.end());
    ASSERT_NE(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    expect_matches_scalar(g.reverse, 240, 17);
  }
}

TEST_P(IcKernelIdentity, RootOnlySets) {
  // No in-edges at all, and in-edges that are never live.
  const DiffusionGraph bare = in_degree_graph(
      40, [](VertexId) { return VertexId{0}; }, false, Coin::kUniform, 1);
  const DiffusionGraph dead = in_degree_graph(
      40, [](VertexId) { return VertexId{16}; }, false, Coin::kNever, 1);
  for (const DiffusionGraph* g : {&bare, &dead}) {
    std::size_t largest = 0;
    expect_matches_scalar(g->reverse, 80, 23, &largest);
    EXPECT_EQ(largest, 1u);
  }
}

TEST_P(IcKernelIdentity, EpochWrapClearsStaleStamps) {
  // Stamp the graph at epochs 1..60, then jump to just below the wrap:
  // the sets after the wrap reuse epochs 1.., and only the wrap's full
  // clear keeps those stale stamps from reading as visited.
  const DiffusionGraph g = in_degree_graph(
      60, [](VertexId v) { return kLengths[v % kLengths.size()]; }, false,
      Coin::kAlways, 9);
  SamplerScratch scalar_scratch(g.num_vertices());
  SamplerScratch tier_scratch(g.num_vertices());
  expect_matches_scalar(g.reverse, 60, 31, scalar_scratch, tier_scratch);
  const std::uint32_t near_wrap = std::numeric_limits<std::uint32_t>::max() - 8;
  scalar_scratch.visited.set_epoch_for_test(near_wrap);
  tier_scratch.visited.set_epoch_for_test(near_wrap);
  expect_matches_scalar(g.reverse, 60, 37, scalar_scratch, tier_scratch);
  // 8 sets before the wrap, then epochs 1..52.
  EXPECT_EQ(tier_scratch.visited.epoch(), 52u);
}

TEST_P(IcKernelIdentity, DenseWorkloadPool) {
  const DiffusionGraph g = make_workload_with_weights(
      "soc-Pokec", DiffusionModel::kIndependentCascade, 0.05);
  expect_matches_scalar(g.reverse, 128, 20240924);
}

TEST_P(IcKernelIdentity, SharesScratchWithTheScalarKernel) {
  // One scratch serving both kernels in turn: the scalar loop's
  // frontier clear() must not confuse the vector tier, nor vice versa.
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.05);
  const TierFn tier = tier_fn(GetParam());
  SamplerScratch shared(g.num_vertices());
  SamplerScratch reference(g.num_vertices());
  for (std::uint64_t i = 0; i < 64; ++i) {
    Xoshiro256 rng = Xoshiro256::for_stream(5, i);
    Xoshiro256 ref_rng = rng;
    const auto root = static_cast<VertexId>(i * 37 % g.num_vertices());
    const auto got = i % 2 == 0 ? tier(g.reverse, root, rng, shared)
                                : sample_rrr_ic(g.reverse, root, rng, shared);
    ASSERT_EQ(got, sample_rrr_ic(g.reverse, root, ref_rng, reference))
        << "set " << i;
    ASSERT_EQ(rng(), ref_rng()) << "set " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, IcKernelIdentity,
                         ::testing::Values(IcKernel::kAvx2, IcKernel::kAvx512),
                         [](const auto& info) {
                           return std::string(detail::to_string(info.param));
                         });

TEST(IcKernelDispatch, PicksASupportedTierAndGuardsWideIds) {
  const IcKernel picked = detail::ic_kernel_for(1000);
  EXPECT_TRUE(detail::ic_kernel_supported(picked));
  EXPECT_TRUE(detail::ic_kernel_supported(IcKernel::kScalar));
  if (detail::ic_kernel_supported(IcKernel::kAvx512)) {
    EXPECT_EQ(picked, IcKernel::kAvx512);
  } else if (detail::ic_kernel_supported(IcKernel::kAvx2)) {
    EXPECT_EQ(picked, IcKernel::kAvx2);
  }
  // Ids at or above 2^31 would be negative gather indices.
  const std::uint64_t int32_max = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(detail::ic_kernel_for(int32_max), picked);
  EXPECT_EQ(detail::ic_kernel_for(int32_max + 1), IcKernel::kScalar);
}

}  // namespace
}  // namespace eimm
