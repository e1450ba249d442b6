// Golden digests of the first sampled RRR sets.
//
// Each digest is a CRC32C over the first 256 `sample_rrr` sets of one
// workload at a small scale and a fixed seed: every set contributes its
// member count, then its members in sampled order. The values were
// computed with the scalar samplers, before the IC kernel gained its
// vector tiers. Any change to members, member order or RNG draw order
// changes a digest, so a sampler change that alters draws fails here
// loudly instead of surfacing as a quiet seed-set drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rrr/generate.hpp"
#include "support/crc32c.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

constexpr std::uint64_t kSeed = 20240924;
constexpr std::uint64_t kSets = 256;

struct PoolDigest {
  std::uint32_t crc = 0;
  std::uint64_t members = 0;
};

PoolDigest digest_first_sets(const std::string& workload, DiffusionModel model,
                             double scale) {
  const DiffusionGraph g = make_workload_with_weights(workload, model, scale);
  SamplerScratch scratch(g.num_vertices());
  PoolDigest d;
  for (std::uint64_t i = 0; i < kSets; ++i) {
    const std::vector<VertexId> set =
        sample_rrr(g.reverse, model, kSeed, i, scratch);
    const auto count = static_cast<std::uint32_t>(set.size());
    d.crc = crc32c(&count, sizeof(count), d.crc);
    d.crc = crc32c(set.data(), set.size() * sizeof(VertexId), d.crc);
    d.members += set.size();
  }
  return d;
}

TEST(GoldenPoolDigest, IndependentCascadeOnSocPokec) {
  const PoolDigest d = digest_first_sets(
      "soc-Pokec", DiffusionModel::kIndependentCascade, 0.05);
  EXPECT_EQ(d.members, 315786u);
  EXPECT_EQ(d.crc, 0x970FEEE0u);
}

TEST(GoldenPoolDigest, LinearThresholdOnAsSkitter) {
  const PoolDigest d = digest_first_sets(
      "as-Skitter", DiffusionModel::kLinearThreshold, 0.05);
  EXPECT_EQ(d.members, 604u);
  EXPECT_EQ(d.crc, 0x2E00F92Fu);
}

}  // namespace
}  // namespace eimm
