// The zero-copy storage contract: views over SegmentedPool storage
// holding the SAME sets — as sorted runs or as bitmap runs, in one arena
// or spread over several — and over a CompressedPool of them must be
// indistinguishable slot-by-slot: size, membership, enumeration order,
// and the flattened CSR image, because the selection kernels'
// bit-identical seed guarantee rests on exactly this equivalence. Also
// covers the bitmap crossover and the ShardArena reset() chunk-reuse
// semantics the compressed-pool build depends on.
#include "rrr/pool_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "support/macros.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

/// Builds a SegmentedPool holding the same member lists as the reference
/// pool, staged through `workers` round-robin arenas — the layout the
/// sharded sampler produces, minus the threads. With `bitmaps`, the
/// reference's bitmap runs are staged as bitmap runs; otherwise every
/// set is a sorted run.
SegmentedPool segment_pool(const SegmentedPool& reference,
                           std::size_t workers, bool bitmaps = false) {
  const VertexId n = reference.num_vertices();
  SegmentedPool segments(n);
  segments.resize(reference.size());
  segments.ensure_workers(workers);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const std::vector<VertexId> sorted = testing::members_of(reference[i]);
    ShardArena& arena = segments.arena(i % workers);
    if (bitmaps && reference[i].repr() == RRRRepr::kBitmap) {
      const std::span<std::uint64_t> words =
          arena.allocate_bitmap(words_for_bits(n));
      for (const VertexId v : sorted) {
        words[v >> 6] |= std::uint64_t{1} << (v & 63);
      }
      segments.set_bitmap(i, words.data(), sorted.size());
    } else {
      segments.set_run(i, arena.view(arena.append(sorted)));
    }
  }
  return segments;
}

/// Sampled IC pool; with `adaptive`, sets at or above the bitmap
/// crossover are bitmap runs.
SegmentedPool sampled_pool(bool adaptive, std::size_t count = 300) {
  const DiffusionGraph g = testing::make_weighted_graph(
      gen_erdos_renyi(400, 2500, 17), DiffusionModel::kIndependentCascade);
  return testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, count, 0xFEED,
      adaptive ? bitmap_cutoff(g.num_vertices()) : testing::kRunsOnly);
}

void expect_views_identical(const RRRPoolView& a, const RRRPoolView& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.total_vertices(), b.total_vertices());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RRRSetView sa = a[i];
    const RRRSetView sb = b[i];
    ASSERT_EQ(sa.size(), sb.size()) << "slot " << i;
    std::vector<VertexId> va;
    std::vector<VertexId> vb;
    sa.for_each([&](VertexId v) { va.push_back(v); });
    sb.for_each([&](VertexId v) { vb.push_back(v); });
    ASSERT_EQ(va, vb) << "slot " << i;
    EXPECT_TRUE(std::is_sorted(va.begin(), va.end())) << "slot " << i;
    for (const VertexId v : va) {
      EXPECT_TRUE(sa.contains(v));
      EXPECT_TRUE(sb.contains(v));
    }
  }
  const FlatPool fa = a.flatten();
  const FlatPool fb = b.flatten();
  EXPECT_EQ(fa.num_vertices, fb.num_vertices);
  EXPECT_EQ(fa.offsets, fb.offsets);
  EXPECT_EQ(fa.vertices, fb.vertices);
}

TEST(RRRPoolView, SegmentsAcrossArenasMatchOneArenaPoolSlotBySlot) {
  const SegmentedPool pool = sampled_pool(/*adaptive=*/false);
  const SegmentedPool segments = segment_pool(pool, 3);
  expect_views_identical(RRRPoolView(pool), RRRPoolView(segments));
}

TEST(RRRPoolView, SegmentBackingMatchesAdaptivePoolWithBitmaps) {
  // The adaptive pool holds bitmap runs; the segment backing holds
  // sorted runs only — the view must erase the representation
  // difference entirely.
  const SegmentedPool pool = sampled_pool(/*adaptive=*/true);
  ASSERT_GT(pool.bitmap_count(), 0u)
      << "workload did not produce bitmap sets; raise density";
  const SegmentedPool segments = segment_pool(pool, 4);
  const RRRPoolView adaptive(pool);
  const RRRPoolView runs(segments);
  expect_views_identical(adaptive, runs);
  EXPECT_EQ(adaptive.bitmap_count(), pool.bitmap_count());
  EXPECT_EQ(runs.bitmap_count(), 0u);
  EXPECT_TRUE(runs.segmented());
  EXPECT_FALSE(runs.compressed());
}

TEST(RRRPoolView, BitmapRunsMatchAdaptivePoolBitmaps) {
  // Bitmap runs staged across several arenas: same slots, same
  // representations, same bitmap count, same flattened image.
  const SegmentedPool pool = sampled_pool(/*adaptive=*/true);
  ASSERT_GT(pool.bitmap_count(), 0u);
  ASSERT_LT(pool.bitmap_count(), pool.size());
  const SegmentedPool segments = segment_pool(pool, 3, /*bitmaps=*/true);
  const RRRPoolView spread(segments);
  expect_views_identical(RRRPoolView(pool), spread);
  EXPECT_EQ(spread.bitmap_count(), pool.bitmap_count());
  const std::size_t cutoff = bitmap_cutoff(pool.num_vertices());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(spread[i].repr(), pool[i].repr()) << "slot " << i;
    EXPECT_EQ(pool[i].repr() == RRRRepr::kBitmap, pool[i].size() >= cutoff)
        << "slot " << i;
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (VertexId v = 0; v < pool.num_vertices(); v += 3) {
      EXPECT_EQ(spread[i].contains(v), pool[i].contains(v))
          << "slot " << i << " vertex " << v;
    }
  }
}

TEST(RRRPoolView, ContainsRejectsNonMembersOnBothBackings) {
  const SegmentedPool pool = sampled_pool(/*adaptive=*/true, 50);
  CompressedPool comp(pool.num_vertices());
  comp.append(RRRPoolView(pool), 0, pool.size());
  const RRRPoolView a(pool);
  const RRRPoolView b(comp);
  ASSERT_TRUE(b.compressed());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (VertexId v = 0; v < a.num_vertices(); v += 7) {
      EXPECT_EQ(a[i].contains(v), b[i].contains(v))
          << "slot " << i << " vertex " << v;
    }
  }
}

TEST(RRRPoolView, BitmapCutoffIsOneThirtySecondOfTheVertexCount) {
  // Where a bitmap (1 bit per vertex) gets smaller than 4-byte ids.
  EXPECT_EQ(bitmap_cutoff(0), 0u);
  EXPECT_EQ(bitmap_cutoff(31), 0u);
  EXPECT_EQ(bitmap_cutoff(32), 1u);
  EXPECT_EQ(bitmap_cutoff(640), 20u);
  // 3 of 1000 vertices stay a sorted run; 100 cross to a bitmap run.
  EXPECT_EQ(bitmap_cutoff(1000), 31u);
  std::vector<VertexId> dense(100);
  std::iota(dense.begin(), dense.end(), 0);
  const SegmentedPool pool =
      testing::make_pool(1000, {{1, 2, 3}, dense}, bitmap_cutoff(1000));
  EXPECT_EQ(pool[0].repr(), RRRRepr::kVector);
  EXPECT_EQ(pool[1].repr(), RRRRepr::kBitmap);
}

TEST(RRRSetView, VerticesSpanMatchesSetVectorRepresentation) {
  const SegmentedPool pool = testing::make_pool(10, {{5, 1, 9, 3}});
  const RRRSetView view = pool[0];
  EXPECT_EQ(view.repr(), RRRRepr::kVector);
  ASSERT_EQ(view.vertices().size(), 4u);
  EXPECT_EQ(view.vertices()[0], 1u);  // make_pool sorts
  EXPECT_EQ(view.vertices()[3], 9u);

  const std::vector<VertexId> run = {1, 3, 5, 9};
  const RRRSetView run_view{std::span<const VertexId>(run)};
  EXPECT_EQ(run_view.repr(), RRRRepr::kVector);
  EXPECT_EQ(run_view.size(), 4u);
  EXPECT_TRUE(std::equal(run_view.vertices().begin(),
                         run_view.vertices().end(), view.vertices().begin()));
}

TEST(RRRSetView, DefaultIsAnEmptySortedRun) {
  const RRRSetView view;
  EXPECT_EQ(view.repr(), RRRRepr::kVector);
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(view.vertices().empty());
  EXPECT_FALSE(view.contains(0));
  std::size_t visited = 0;
  view.for_each([&](VertexId) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(RRRSetView, BitmapRunMembershipAtWordEdges) {
  // n = 130 is not a multiple of 64: the last word is partial.
  constexpr VertexId kVertices = 130;
  const std::vector<VertexId> members = {129, 0, 64, 5, 63, 100};
  ShardArena arena;
  const std::span<std::uint64_t> words =
      arena.allocate_bitmap(words_for_bits(kVertices));
  ASSERT_EQ(words.size(), 3u);
  for (const VertexId v : members) {
    words[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  const RRRSetView view =
      RRRSetView::bitmap(words.data(), kVertices, members.size());

  EXPECT_EQ(view.repr(), RRRRepr::kBitmap);
  EXPECT_EQ(view.size(), members.size());
  EXPECT_FALSE(view.empty());
  EXPECT_TRUE(view.vertices().empty());  // no materialized member list
  for (const VertexId v : {0u, 63u, 64u, 129u, 5u, 100u}) {
    EXPECT_TRUE(view.contains(v)) << v;
  }
  for (const VertexId v : {1u, 62u, 65u, 127u, 128u, 130u, 4000u}) {
    EXPECT_FALSE(view.contains(v)) << v;
  }

  std::vector<VertexId> enumerated;
  view.for_each([&](VertexId v) { enumerated.push_back(v); });
  std::vector<VertexId> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(enumerated, sorted);

  // flatten() expands the bitmap run beside a sorted run.
  SegmentedPool segments(kVertices);
  segments.resize(2);
  segments.set_bitmap(0, words.data(), members.size());
  const std::vector<VertexId> run = {7, 9};
  segments.set_run(1, arena.view(arena.append(run)));
  const RRRPoolView pool_view(segments);
  EXPECT_EQ(pool_view.bitmap_count(), 1u);
  EXPECT_EQ(pool_view.total_vertices(), members.size() + run.size());
  const FlatPool flat = pool_view.flatten();
  EXPECT_EQ(flat.offsets, (std::vector<std::uint64_t>{0, 6, 8}));
  EXPECT_EQ(flat.vertices,
            (std::vector<VertexId>{0, 5, 63, 64, 100, 129, 7, 9}));
}

// --- ShardArena staging and reset/reuse ---

TEST(ShardArena, BitmapRunsAreAlignedAndZeroed) {
  ShardArena arena(/*chunk_vertices=*/64);
  const std::vector<VertexId> odd = {1, 2, 3};
  for (int round = 0; round < 2; ++round) {
    arena.append(odd);  // leaves the cursor on an odd 4-byte unit
    const std::span<std::uint64_t> words = arena.allocate_bitmap(5);
    ASSERT_EQ(words.size(), 5u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words.data()) % 8, 0u);
    for (const std::uint64_t w : words) EXPECT_EQ(w, 0u) << round;
    // Dirty the words: the reused chunk must come back zeroed.
    for (std::uint64_t& w : words) w = ~std::uint64_t{0};
    arena.reset();
  }
  EXPECT_EQ(arena.runs(), 4u);
  EXPECT_EQ(arena.staged_bytes(), 2 * (3 * sizeof(VertexId) + 5 * 8));
}

TEST(ShardArena, ResetReusesMappedChunksAcrossRounds) {
  ShardArena arena(/*chunk_vertices=*/16);
  std::vector<VertexId> run(10);
  std::iota(run.begin(), run.end(), 0);

  for (int i = 0; i < 4; ++i) arena.append(run);
  const std::uint64_t mapped_after_round1 = arena.mapped_bytes();
  const std::uint64_t staged_after_round1 = arena.staged_bytes();
  ASSERT_GT(mapped_after_round1, 0u);

  arena.reset();
  std::vector<ShardArena::Ref> refs;
  for (int i = 0; i < 4; ++i) refs.push_back(arena.append(run));

  // Same payload volume → no new chunks; staged keeps accumulating.
  EXPECT_EQ(arena.mapped_bytes(), mapped_after_round1);
  EXPECT_EQ(arena.staged_bytes(), 2 * staged_after_round1);
  EXPECT_EQ(arena.runs(), 8u);
  for (const ShardArena::Ref& ref : refs) {
    const auto view = arena.view(ref);
    EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), run);
  }
}

TEST(ShardArena, ResetKeepsOversizedChunksUsable) {
  ShardArena arena(/*chunk_vertices=*/4);
  std::vector<VertexId> giant(100);
  std::iota(giant.begin(), giant.end(), 0);
  arena.append({giant.data(), 3});
  arena.append(giant);  // dedicated oversized chunk
  const std::uint64_t mapped = arena.mapped_bytes();

  arena.reset();
  arena.append({giant.data(), 2});
  const auto ref = arena.append(giant);  // must land in the reused chunk
  EXPECT_EQ(arena.mapped_bytes(), mapped);
  const auto view = arena.view(ref);
  EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), giant);
}

TEST(SegmentedPool, TracksStagedAndMappedBytesAcrossWorkers) {
  const SegmentedPool pool = sampled_pool(/*adaptive=*/false, 60);
  const SegmentedPool segments = segment_pool(pool, 3);
  EXPECT_EQ(segments.num_workers(), 3u);
  EXPECT_EQ(segments.staged_bytes(),
            RRRPoolView(pool).total_vertices() * sizeof(VertexId));
  EXPECT_GE(segments.mapped_bytes(), segments.staged_bytes());
}

TEST(SegmentedPool, NeverShrinks) {
  SegmentedPool segments(10);
  segments.resize(5);
  EXPECT_THROW(segments.resize(3), CheckError);
}

}  // namespace
}  // namespace eimm
